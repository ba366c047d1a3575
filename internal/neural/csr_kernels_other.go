//go:build !amd64 || purego

package neural

func csrGather(h, w []float64, idx []int32, val []float64, n int) {
	csrGatherGeneric(h, w, idx, val, n)
}

func csrScatter(gw, dh []float64, idx []int32, val []float64, n int) {
	csrScatterGeneric(gw, dh, idx, val, n)
}
