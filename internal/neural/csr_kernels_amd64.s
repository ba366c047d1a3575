//go:build amd64 && !purego

#include "textflag.h"

// The sparse-kernel inner loops. Lanes are independent accumulators, and
// multiply and add are separate IEEE operations (no FMA), so these produce
// exactly the bits of the generic Go loops.

// func x86HasAVX() bool
TEXT ·x86HasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX       // OSXSAVE
	JCC  no
	BTL  $28, CX       // AVX
	JCC  no
	XORL CX, CX
	XGETBV             // XCR0 in AX
	ANDL $6, AX        // XMM|YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func csrGatherAVX(h, w *float64, idx *int32, val *float64, nnz, n int)
//
// for p in [0,nnz): h[0:n] += w[idx[p]*n : +n] * val[p]
TEXT ·csrGatherAVX(SB), NOSPLIT, $0-48
	MOVQ h+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ idx+16(FP), DX
	MOVQ val+24(FP), CX
	MOVQ nnz+32(FP), R8
	MOVQ n+40(FP), R9
gploop:
	MOVLQSX (DX), R10      // col = idx[p]
	IMULQ   R9, R10        // col*n
	LEAQ    (SI)(R10*8), R14
	VBROADCASTSD (CX), Y0  // val[p] in all lanes (X0 = low lane)
	MOVQ    DI, R13        // accumulator cursor
	MOVQ    R9, R12        // remaining lanes
gvloop:
	CMPQ R12, $4
	JLT  gtail
	VMOVUPD (R14), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (R13), Y1, Y1
	VMOVUPD Y1, (R13)
	ADDQ $32, R13
	ADDQ $32, R14
	SUBQ $4, R12
	JMP  gvloop
gtail:
	TESTQ R12, R12
	JE    gnext
	MOVSD (R14), X1
	MULSD X0, X1
	ADDSD (R13), X1
	MOVSD X1, (R13)
	ADDQ  $8, R13
	ADDQ  $8, R14
	DECQ  R12
	JMP   gtail
gnext:
	ADDQ $4, DX
	ADDQ $8, CX
	DECQ R8
	JNE  gploop
	VZEROUPPER
	RET

// func csrScatterAVX(gw, dh *float64, idx *int32, val *float64, nnz, n int)
//
// for p in [0,nnz): gw[idx[p]*n : +n] += dh[0:n] * val[p]
TEXT ·csrScatterAVX(SB), NOSPLIT, $0-48
	MOVQ gw+0(FP), DI
	MOVQ dh+8(FP), SI
	MOVQ idx+16(FP), DX
	MOVQ val+24(FP), CX
	MOVQ nnz+32(FP), R8
	MOVQ n+40(FP), R9
sploop:
	MOVLQSX (DX), R10
	IMULQ   R9, R10
	LEAQ    (DI)(R10*8), R14  // destination column
	VBROADCASTSD (CX), Y0
	MOVQ    SI, R13           // dh cursor
	MOVQ    R9, R12
svloop:
	CMPQ R12, $4
	JLT  stail
	VMOVUPD (R13), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (R14), Y1, Y1
	VMOVUPD Y1, (R14)
	ADDQ $32, R13
	ADDQ $32, R14
	SUBQ $4, R12
	JMP  svloop
stail:
	TESTQ R12, R12
	JE    snext
	MOVSD (R13), X1
	MULSD X0, X1
	ADDSD (R14), X1
	MOVSD X1, (R14)
	ADDQ  $8, R13
	ADDQ  $8, R14
	DECQ  R12
	JMP   stail
snext:
	ADDQ $4, DX
	ADDQ $8, CX
	DECQ R8
	JNE  sploop
	VZEROUPPER
	RET
