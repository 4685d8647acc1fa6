//go:build amd64

#include "textflag.h"

// func qgemmKernel4x16(a *int8, b *uint8, cbuf *int32, kq int)
//
// 4×16 int8 micro-kernel: Y0..Y7 hold the int32 accumulator tile (row r in
// Y(2r), Y(2r+1)), Y8/Y9 the current packed-B quad row (16 columns × 4
// unsigned activation bytes), Y11 the broadcast packed-A weight quad (4
// signed bytes, one output channel). Per quad and row:
//
//	VPMADDUBSW  u8×s8 pair products summed into int16 lanes
//	VPMADDWD    ×1 fold of the int16 pairs into int32 column sums
//	VPADDD      accumulate
//
// The int16 stage saturates, but QWeightMax bounds pair sums to 32130 <
// 32767, so the kernel is exact and matches the scalar reference bit for
// bit. Y10 holds the int16 ones for the VPMADDWD fold.
TEXT ·qgemmKernel4x16(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ cbuf+16(FP), DX
	MOVQ kq+24(FP), CX

	// Y10 = sixteen int16 ones: all-ones compare, then shift each lane
	// down to 1.
	VPCMPEQW Y10, Y10, Y10
	VPSRLW   $15, Y10, Y10

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	TESTQ CX, CX
	JZ    done

loop:
	VMOVDQU (DI), Y8
	VMOVDQU 32(DI), Y9

	VPBROADCASTD (SI), Y11
	VPMADDUBSW   Y11, Y8, Y12
	VPMADDWD     Y10, Y12, Y12
	VPADDD       Y12, Y0, Y0
	VPMADDUBSW   Y11, Y9, Y12
	VPMADDWD     Y10, Y12, Y12
	VPADDD       Y12, Y1, Y1

	VPBROADCASTD 4(SI), Y11
	VPMADDUBSW   Y11, Y8, Y12
	VPMADDWD     Y10, Y12, Y12
	VPADDD       Y12, Y2, Y2
	VPMADDUBSW   Y11, Y9, Y12
	VPMADDWD     Y10, Y12, Y12
	VPADDD       Y12, Y3, Y3

	VPBROADCASTD 8(SI), Y11
	VPMADDUBSW   Y11, Y8, Y12
	VPMADDWD     Y10, Y12, Y12
	VPADDD       Y12, Y4, Y4
	VPMADDUBSW   Y11, Y9, Y12
	VPMADDWD     Y10, Y12, Y12
	VPADDD       Y12, Y5, Y5

	VPBROADCASTD 12(SI), Y11
	VPMADDUBSW   Y11, Y8, Y12
	VPMADDWD     Y10, Y12, Y12
	VPADDD       Y12, Y6, Y6
	VPMADDUBSW   Y11, Y9, Y12
	VPMADDWD     Y10, Y12, Y12
	VPADDD       Y12, Y7, Y7

	ADDQ $16, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

done:
	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VMOVDQU Y4, 128(DX)
	VMOVDQU Y5, 160(DX)
	VMOVDQU Y6, 192(DX)
	VMOVDQU Y7, 224(DX)
	VZEROUPPER
	RET

// func qgemmKernel4x16VNNI(a *int8, b *uint8, cbuf *int32, kq int)
//
// qgemmKernel4x16 on AVX512_VNNI: the 64-byte packed B quad row is one ZMM
// (Z8 or Z9), and each k-quad is four VPDPBUSD, one per row, each
// multiplying the u8 row against the row's s8 weight quad broadcast from
// memory and adding the four products of every column into its int32 lane
// without an int16 stage. Quads alternate between two accumulator sets —
// row r in Zr for even quads, Z(r+4) for odd ones — so eight dependency
// chains are in flight, and the sets are added at the end. Integer sums do
// not depend on their order, so the tile is exactly the scalar reference's.
TEXT ·qgemmKernel4x16VNNI(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ cbuf+16(FP), DX
	MOVQ kq+24(FP), CX

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

	// An odd quad count takes its first quad alone.
	TESTQ $1, CX
	JZ    vnnipairs
	VMOVDQU32     (DI), Z8
	VPDPBUSD.BCST (SI), Z8, Z0
	VPDPBUSD.BCST 4(SI), Z8, Z1
	VPDPBUSD.BCST 8(SI), Z8, Z2
	VPDPBUSD.BCST 12(SI), Z8, Z3
	ADDQ          $16, SI
	ADDQ          $64, DI

vnnipairs:
	SHRQ $1, CX
	JZ   vnnisum
	PCALIGN $64

vnniloop:
	VMOVDQU32     (DI), Z8
	VMOVDQU32     64(DI), Z9
	VPDPBUSD.BCST (SI), Z8, Z0
	VPDPBUSD.BCST 4(SI), Z8, Z1
	VPDPBUSD.BCST 8(SI), Z8, Z2
	VPDPBUSD.BCST 12(SI), Z8, Z3
	VPDPBUSD.BCST 16(SI), Z9, Z4
	VPDPBUSD.BCST 20(SI), Z9, Z5
	VPDPBUSD.BCST 24(SI), Z9, Z6
	VPDPBUSD.BCST 28(SI), Z9, Z7
	ADDQ          $32, SI
	ADDQ          $128, DI
	DECQ          CX
	JNZ           vnniloop

vnnisum:
	VPADDD    Z4, Z0, Z0
	VPADDD    Z5, Z1, Z1
	VPADDD    Z6, Z2, Z2
	VPADDD    Z7, Z3, Z3
	VMOVDQU32 Z0, (DX)
	VMOVDQU32 Z1, 64(DX)
	VMOVDQU32 Z2, 128(DX)
	VMOVDQU32 Z3, 192(DX)
	VZEROUPPER
	RET
