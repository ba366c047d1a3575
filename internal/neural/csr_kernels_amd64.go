//go:build amd64 && !purego

package neural

// useAVX gates the assembly kernels on hardware and OS support (AVX state
// must be enabled in XCR0, not just present in CPUID).
var useAVX = x86HasAVX()

// x86HasAVX reports CPU + OS support for the AVX kernels (implemented in
// csr_kernels_amd64.s).
func x86HasAVX() bool

//go:noescape
func csrGatherAVX(h, w *float64, idx *int32, val *float64, nnz, n int)

//go:noescape
func csrScatterAVX(gw, dh *float64, idx *int32, val *float64, nnz, n int)

func csrGather(h, w []float64, idx []int32, val []float64, n int) {
	if useAVX && len(idx) > 0 && n > 0 {
		csrGatherAVX(&h[0], &w[0], &idx[0], &val[0], len(idx), n)
		return
	}
	csrGatherGeneric(h, w, idx, val, n)
}

func csrScatter(gw, dh []float64, idx []int32, val []float64, n int) {
	if useAVX && len(idx) > 0 && n > 0 {
		csrScatterAVX(&gw[0], &dh[0], &idx[0], &val[0], len(idx), n)
		return
	}
	csrScatterGeneric(gw, dh, idx, val, n)
}
