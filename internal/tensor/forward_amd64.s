//go:build amd64

#include "textflag.h"

// The AVX2 kernels of the fp32 forward's steps around the GEMM: the
// stride-2 panel mover, the max pool's two passes and the conv epilogue.
// Each returns bit for bit what the Go loop it stands in for returns.

// laneBit holds 1 << i in lane i, to turn eight bits of a lane mask into
// a vector mask.
DATA laneBit<>+0(SB)/4, $1
DATA laneBit<>+4(SB)/4, $2
DATA laneBit<>+8(SB)/4, $4
DATA laneBit<>+12(SB)/4, $8
DATA laneBit<>+16(SB)/4, $16
DATA laneBit<>+20(SB)/4, $32
DATA laneBit<>+24(SB)/4, $64
DATA laneBit<>+28(SB)/4, $128
GLOBL laneBit<>(SB), RODATA|NOPTR, $32

// firstLanes is sixteen all-ones words then sixteen zeros: the sixteen
// words from firstLanes + 4·(16 − n) have lanes [0, n) set.
DATA firstLanes<>+0(SB)/8, $-1
DATA firstLanes<>+8(SB)/8, $-1
DATA firstLanes<>+16(SB)/8, $-1
DATA firstLanes<>+24(SB)/8, $-1
DATA firstLanes<>+32(SB)/8, $-1
DATA firstLanes<>+40(SB)/8, $-1
DATA firstLanes<>+48(SB)/8, $-1
DATA firstLanes<>+56(SB)/8, $-1
DATA firstLanes<>+64(SB)/8, $0
DATA firstLanes<>+72(SB)/8, $0
DATA firstLanes<>+80(SB)/8, $0
DATA firstLanes<>+88(SB)/8, $0
DATA firstLanes<>+96(SB)/8, $0
DATA firstLanes<>+104(SB)/8, $0
DATA firstLanes<>+112(SB)/8, $0
DATA firstLanes<>+120(SB)/8, $0
GLOBL firstLanes<>(SB), RODATA|NOPTR, $128

// LANEMASK sets lane i of y to all ones where bit i of the low byte of the
// 32-bit register bits is set, and to zero where it is clear; x is y's low
// half and lanebit holds laneBit.
#define LANEMASK(bits, x, y, lanebit) \
	VMOVD bits, x; \
	VPBROADCASTD x, y; \
	VPAND lanebit, y, y; \
	VPCMPEQD lanebit, y, y

// GOMAX folds v into acc lane by lane with Go's max builtin: NaN (all ones)
// when either is NaN, otherwise the bitwise AND of max(acc, v) and
// max(v, acc). MAXPS returns its second operand on a tie, so the AND is
// the larger value when they differ and acc AND v when they are equal —
// +0 for +0 and −0, as the builtin. t1 and t2 are scratch.
#define GOMAX(v, acc, t1, t2) \
	VCMPPS $3, v, acc, t2; \
	VMAXPS v, acc, t1; \
	VMAXPS acc, v, acc; \
	VANDPS t1, acc, acc; \
	VORPS t2, acc, acc

// EVENS8 loads the sixteen floats at lo and hi (lo's 32 bytes on) and
// leaves the eight at even positions, in order, in y; t is scratch.
#define EVENS8(lo, hi, y, t) \
	VMOVUPS lo, y; \
	VMOVUPS hi, t; \
	VSHUFPS $0x88, t, y, y; \
	VPERMPD $0xD8, y, y

// func packRowsS2(dst, src *float32, dstStride, srcStride, rows int, store, keep uint32)
TEXT ·packRowsS2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dstStride+16(FP), DX
	MOVQ srcStride+24(FP), R8
	MOVQ rows+32(FP), CX
	MOVL store+40(FP), AX
	MOVL keep+44(FP), BX
	SHLQ $2, DX
	SHLQ $2, R8
	VMOVDQU laneBit<>(SB), Y15
	LANEMASK(AX, X10, Y10, Y15)
	SHRL $8, AX
	LANEMASK(AX, X11, Y11, Y15)
	LANEMASK(BX, X12, Y12, Y15)
	SHRL $8, BX
	LANEMASK(BX, X13, Y13, Y15)

packrow:
	EVENS8((SI), 32(SI), Y0, Y1)
	EVENS8(64(SI), 96(SI), Y2, Y3)
	VANDPS Y12, Y0, Y0
	VANDPS Y13, Y2, Y2
	VMASKMOVPS Y0, Y10, (DI)
	VMASKMOVPS Y2, Y11, 32(DI)
	ADDQ DX, DI
	ADDQ R8, SI
	DECQ CX
	JNZ  packrow
	VZEROUPPER
	RET

// func poolColsF32(dst, src *float32, n, rows, stride int)
TEXT ·poolColsF32(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ rows+24(FP), BX
	MOVQ stride+32(FP), DX
	SHLQ $2, DX

colgroup:
	VMOVUPS (SI), Y0
	LEAQ    (SI)(DX*1), R8
	MOVQ    BX, R9
	DECQ    R9
	JZ      colstore

colrow:
	VMOVUPS (R8), Y1
	GOMAX(Y1, Y0, Y2, Y3)
	ADDQ    DX, R8
	DECQ    R9
	JNZ     colrow

colstore:
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     colgroup
	VZEROUPPER
	RET

// func poolRowF32(dst, m *float32, n, kernel, stride int)
TEXT ·poolRowF32(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ kernel+24(FP), BX
	MOVQ stride+32(FP), DX
	CMPQ DX, $1
	JNE  row2

row1:
	VMOVUPS (SI), Y0
	LEAQ    4(SI), R8
	MOVQ    BX, R9
	DECQ    R9
	JZ      row1store

row1tap:
	VMOVUPS (R8), Y1
	GOMAX(Y1, Y0, Y2, Y3)
	ADDQ    $4, R8
	DECQ    R9
	JNZ     row1tap

row1store:
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     row1
	VZEROUPPER
	RET

row2:
	EVENS8((SI), 32(SI), Y0, Y4)
	LEAQ 4(SI), R8
	MOVQ BX, R9
	DECQ R9
	JZ   row2store

row2tap:
	EVENS8((R8), 32(R8), Y1, Y4)
	GOMAX(Y1, Y0, Y2, Y3)
	ADDQ $4, R8
	DECQ R9
	JNZ  row2tap

row2store:
	VMOVUPS Y0, (DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     row2
	VZEROUPPER
	RET

// func storeTile(dst, src, join, bias *float32, dstStride, rows, n int, relu bool)
TEXT ·storeTile(SB), NOSPLIT, $0-57
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ join+16(FP), R10
	MOVQ bias+24(FP), BX
	MOVQ dstStride+32(FP), DX
	MOVQ rows+40(FP), CX
	MOVQ n+48(FP), AX
	MOVB relu+56(FP), R9
	SHLQ $2, DX
	LEAQ firstLanes<>(SB), R8
	NEGQ AX
	LEAQ 64(R8)(AX*4), R8
	VMOVDQU (R8), Y14
	VMOVDQU 32(R8), Y15
	VXORPS  Y13, Y13, Y13

storerow:
	VBROADCASTSS (BX), Y2
	VMOVUPS      (SI), Y0
	VMOVUPS      32(SI), Y1
	VADDPS       Y2, Y0, Y0
	VADDPS       Y2, Y1, Y1
	TESTB        R9, R9
	JZ           storejoin

	// The conv's ReLU, max(v, 0): every v ≤ 0 (−0 too) becomes +0, NaN stays.
	VCMPPS  $2, Y13, Y0, Y3
	VCMPPS  $2, Y13, Y1, Y4
	VANDNPS Y0, Y3, Y0
	VANDNPS Y1, Y4, Y1

storejoin:
	TESTQ R10, R10
	JZ    storeout

	// The residual join and its ReLU: v < 0 becomes +0, −0 and NaN stay.
	VMASKMOVPS (R10), Y14, Y3
	VMASKMOVPS 32(R10), Y15, Y4
	VADDPS     Y3, Y0, Y0
	VADDPS     Y4, Y1, Y1
	VCMPPS     $1, Y13, Y0, Y3
	VCMPPS     $1, Y13, Y1, Y4
	VANDNPS    Y0, Y3, Y0
	VANDNPS    Y1, Y4, Y1
	ADDQ       DX, R10

storeout:
	VMASKMOVPS Y0, Y14, (DI)
	VMASKMOVPS Y1, Y15, 32(DI)
	ADDQ       DX, DI
	ADDQ       $64, SI
	ADDQ       $4, BX
	DECQ       CX
	JNZ        storerow
	VZEROUPPER
	RET

// func poolColsI8(dst, src *int8, n, rows, stride int)
TEXT ·poolColsI8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ rows+24(FP), BX
	MOVQ stride+32(FP), DX

qcolgroup:
	VMOVDQU (SI), Y0
	LEAQ    (SI)(DX*1), R8
	MOVQ    BX, R9
	DECQ    R9
	JZ      qcolstore

qcolrow:
	VPMAXSB (R8), Y0, Y0
	ADDQ    DX, R8
	DECQ    R9
	JNZ     qcolrow

qcolstore:
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     qcolgroup
	VZEROUPPER
	RET
