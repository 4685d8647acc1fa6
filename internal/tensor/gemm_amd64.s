//go:build amd64

#include "textflag.h"

// func gemmKernel6x16(a, b, cbuf *float32, kc, acc int)
//
// 6×16 float32 micro-kernel: Y0..Y11 hold the accumulator tile (row r in
// Y(2r), Y(2r+1)), Y12/Y13 hold the current packed-B row, Y14 the broadcast
// packed-A element. Operands are packed k-major (A: 6 floats per step,
// B: 16 floats per step), so every load is contiguous and the loop has no
// address arithmetic beyond two pointer bumps.
TEXT ·gemmKernel6x16(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ cbuf+16(FP), DX
	MOVQ kc+24(FP), CX
	MOVQ acc+32(FP), AX

	TESTQ AX, AX
	JZ   zero

	// Resume a tile mid k-block loop: load the 6×16 accumulators.
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS 64(DX), Y2
	VMOVUPS 96(DX), Y3
	VMOVUPS 128(DX), Y4
	VMOVUPS 160(DX), Y5
	VMOVUPS 192(DX), Y6
	VMOVUPS 224(DX), Y7
	VMOVUPS 256(DX), Y8
	VMOVUPS 288(DX), Y9
	VMOVUPS 320(DX), Y10
	VMOVUPS 352(DX), Y11
	JMP  body

zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

body:
	TESTQ CX, CX
	JZ   done

loop:
	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13

	VBROADCASTSS (SI), Y14
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VBROADCASTSS 4(SI), Y14
	VFMADD231PS Y12, Y14, Y2
	VFMADD231PS Y13, Y14, Y3
	VBROADCASTSS 8(SI), Y14
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VBROADCASTSS 12(SI), Y14
	VFMADD231PS Y12, Y14, Y6
	VFMADD231PS Y13, Y14, Y7
	VBROADCASTSS 16(SI), Y14
	VFMADD231PS Y12, Y14, Y8
	VFMADD231PS Y13, Y14, Y9
	VBROADCASTSS 20(SI), Y14
	VFMADD231PS Y12, Y14, Y10
	VFMADD231PS Y13, Y14, Y11

	ADDQ $24, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

done:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	VMOVUPS Y8, 256(DX)
	VMOVUPS Y9, 288(DX)
	VMOVUPS Y10, 320(DX)
	VMOVUPS Y11, 352(DX)
	VZEROUPPER
	RET

// func gemmKernel6x16AVX512(a, b, cbuf *float32, kc, acc int)
//
// gemmKernel6x16 on AVX-512: Z0..Z5 hold the accumulator tile (row r in
// Zr), Z6 the current packed-B row, Z7..Z12 the six broadcast packed-A
// elements. Every output lane runs the AVX2 kernel's chain — the same
// fused multiply-adds in the same k order, from zero or from cbuf — so the
// tiles are bit for bit the AVX2 kernel's. The A element is broadcast into
// a register rather than folded into the FMA as an embedded broadcast: the
// memory operand is always the FMA's third source, and where both factors
// are NaN the FMA returns its second source's payload, so only this operand
// order returns the NaN the AVX2 kernel returns.
TEXT ·gemmKernel6x16AVX512(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ cbuf+16(FP), DX
	MOVQ kc+24(FP), CX
	MOVQ acc+32(FP), AX

	TESTQ AX, AX
	JZ    zmmzero

	VMOVUPS (DX), Z0
	VMOVUPS 64(DX), Z1
	VMOVUPS 128(DX), Z2
	VMOVUPS 192(DX), Z3
	VMOVUPS 256(DX), Z4
	VMOVUPS 320(DX), Z5
	JMP     zmmbody

zmmzero:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5

zmmbody:
	TESTQ CX, CX
	JZ    zmmdone
	PCALIGN $64

zmmloop:
	VMOVUPS      (DI), Z6
	VBROADCASTSS (SI), Z7
	VBROADCASTSS 4(SI), Z8
	VBROADCASTSS 8(SI), Z9
	VBROADCASTSS 12(SI), Z10
	VBROADCASTSS 16(SI), Z11
	VBROADCASTSS 20(SI), Z12
	VFMADD231PS  Z6, Z7, Z0
	VFMADD231PS  Z6, Z8, Z1
	VFMADD231PS  Z6, Z9, Z2
	VFMADD231PS  Z6, Z10, Z3
	VFMADD231PS  Z6, Z11, Z4
	VFMADD231PS  Z6, Z12, Z5
	ADDQ         $24, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          zmmloop

zmmdone:
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, 128(DX)
	VMOVUPS Z3, 192(DX)
	VMOVUPS Z4, 256(DX)
	VMOVUPS Z5, 320(DX)
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
