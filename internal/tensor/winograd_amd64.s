//go:build amd64

#include "textflag.h"

// The AVX2 transforms of the Winograd F(2×2, 3×3) forward (winograd.go):
// eight tiles at a time, one tile per lane. Each returns bit for bit what
// its Go reference in the tests returns.

// winoIota holds the int32s 0 to 17, the columns of eight tiles' patches
// counted from the first.
DATA winoIota<>+0(SB)/4, $0
DATA winoIota<>+4(SB)/4, $1
DATA winoIota<>+8(SB)/4, $2
DATA winoIota<>+12(SB)/4, $3
DATA winoIota<>+16(SB)/4, $4
DATA winoIota<>+20(SB)/4, $5
DATA winoIota<>+24(SB)/4, $6
DATA winoIota<>+28(SB)/4, $7
DATA winoIota<>+32(SB)/4, $8
DATA winoIota<>+36(SB)/4, $9
DATA winoIota<>+40(SB)/4, $10
DATA winoIota<>+44(SB)/4, $11
DATA winoIota<>+48(SB)/4, $12
DATA winoIota<>+52(SB)/4, $13
DATA winoIota<>+56(SB)/4, $14
DATA winoIota<>+60(SB)/4, $15
DATA winoIota<>+64(SB)/4, $16
DATA winoIota<>+68(SB)/4, $17
GLOBL winoIota<>(SB), RODATA|NOPTR, $72

// winoLanes is sixteen all-ones words then sixteen zeros: the words from
// winoLanes + 4·(16 − n) have lanes [0, n) set.
DATA winoLanes<>+0(SB)/8, $-1
DATA winoLanes<>+8(SB)/8, $-1
DATA winoLanes<>+16(SB)/8, $-1
DATA winoLanes<>+24(SB)/8, $-1
DATA winoLanes<>+32(SB)/8, $-1
DATA winoLanes<>+40(SB)/8, $-1
DATA winoLanes<>+48(SB)/8, $-1
DATA winoLanes<>+56(SB)/8, $-1
DATA winoLanes<>+64(SB)/8, $0
DATA winoLanes<>+72(SB)/8, $0
DATA winoLanes<>+80(SB)/8, $0
DATA winoLanes<>+88(SB)/8, $0
DATA winoLanes<>+96(SB)/8, $0
DATA winoLanes<>+104(SB)/8, $0
DATA winoLanes<>+112(SB)/8, $0
DATA winoLanes<>+120(SB)/8, $0
GLOBL winoLanes<>(SB), RODATA|NOPTR, $128

// COLMASK sets m's lane i where column off/4 + i of the patches lies in
// [lo, hi): Y8 holds lo − 1 and Y9 hi in every lane; Y10 and Y11 are
// scratch.
#define COLMASK(off, m) \
	VMOVDQU  winoIota<>+off(SB), Y10; \
	VPCMPGTD Y8, Y10, m; \
	VPCMPGTD Y10, Y9, Y11; \
	VPAND    Y11, m, m

// LOADROW loads one patch row of eight tiles from p, its columns masked by
// Y12–Y15, and leaves the row times B in t0–t3: with d0–d3 the tile's four
// columns, d0 − d2, d1 + d2, d2 − d1 and d1 − d3. Y8–Y11 are scratch.
#define LOADROW(p, t0, t1, t2, t3) \
	VMASKMOVPS (p), Y12, Y8; \
	VMASKMOVPS 32(p), Y13, Y9; \
	VSHUFPS    $0x88, Y9, Y8, Y10; \
	VSHUFPS    $0xDD, Y9, Y8, Y11; \
	VPERMPD    $0xD8, Y10, t0; \
	VPERMPD    $0xD8, Y11, t1; \
	VMASKMOVPS 8(p), Y14, Y8; \
	VMASKMOVPS 40(p), Y15, Y9; \
	VSHUFPS    $0x88, Y9, Y8, Y10; \
	VSHUFPS    $0xDD, Y9, Y8, Y11; \
	VPERMPD    $0xD8, Y10, Y10; \
	VPERMPD    $0xD8, Y11, Y11; \
	VSUBPS     Y11, t1, t3; \
	VSUBPS     Y10, t0, t0; \
	VSUBPS     t1, Y10, t2; \
	VADDPS     Y10, t1, t1

// ZERO4 clears four registers: a patch row in the padding.
#define ZERO4(a, b, c, d) \
	VXORPS a, a, a; \
	VXORPS b, b, b; \
	VXORPS c, c, c; \
	VXORPS d, d, d

// func winoInput(dst, src *float32, off, w, hw, chans, xiStride, lo, hi, n, rows int)
TEXT ·winoInput(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ off+16(FP), AX
	LEAQ (SI)(AX*4), SI
	MOVQ w+24(FP), R8
	SHLQ $2, R8
	MOVQ hw+32(FP), R9
	SHLQ $2, R9
	MOVQ chans+40(FP), CX
	MOVQ xiStride+48(FP), DX
	SHLQ $2, DX
	MOVQ lo+56(FP), AX
	DECQ AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8
	MOVQ         hi+64(FP), AX
	VMOVD        AX, X9
	VPBROADCASTD X9, Y9
	COLMASK(0, Y12)
	COLMASK(32, Y13)
	COLMASK(8, Y14)
	COLMASK(40, Y15)
	MOVQ n+72(FP), AX
	NEGQ AX
	LEAQ winoLanes<>(SB), R10
	LEAQ 64(R10)(AX*4), R10
	MOVQ rows+80(FP), BX

inchan:
	// Rows 0 and 2 of the patch give V's row 0, rows 1 and 2 its rows 1
	// and 2, rows 1 and 3 its row 3; point ξ = 4i + j lands ξ·xiStride on.
	TESTQ $1, BX
	JZ    inzero0
	LOADROW(SI, Y0, Y1, Y2, Y3)
	JMP   inrow2

inzero0:
	ZERO4(Y0, Y1, Y2, Y3)

inrow2:
	LEAQ  (SI)(R8*2), R11
	TESTQ $4, BX
	JZ    inzero2
	LOADROW(R11, Y4, Y5, Y6, Y7)
	JMP   instore0

inzero2:
	ZERO4(Y4, Y5, Y6, Y7)

instore0:
	VMOVDQU    (R10), Y11
	MOVQ       DI, AX
	VSUBPS     Y4, Y0, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VSUBPS     Y5, Y1, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VSUBPS     Y6, Y2, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VSUBPS     Y7, Y3, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	LEAQ       (SI)(R8*1), R11
	TESTQ      $2, BX
	JZ         inzero1
	LOADROW(R11, Y0, Y1, Y2, Y3)
	JMP        instore1

inzero1:
	ZERO4(Y0, Y1, Y2, Y3)

instore1:
	VMOVDQU    (R10), Y11
	VADDPS     Y4, Y0, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VADDPS     Y5, Y1, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VADDPS     Y6, Y2, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VADDPS     Y7, Y3, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VSUBPS     Y0, Y4, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VSUBPS     Y1, Y5, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VSUBPS     Y2, Y6, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VSUBPS     Y3, Y7, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	LEAQ       (R11)(R8*2), R11
	TESTQ      $8, BX
	JZ         inzero3
	LOADROW(R11, Y4, Y5, Y6, Y7)
	JMP        instore3

inzero3:
	ZERO4(Y4, Y5, Y6, Y7)

instore3:
	VMOVDQU    (R10), Y11
	VSUBPS     Y4, Y0, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VSUBPS     Y5, Y1, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VSUBPS     Y6, Y2, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       DX, AX
	VSUBPS     Y7, Y3, Y8
	VMASKMOVPS Y8, Y11, (AX)
	ADDQ       R9, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        inchan
	VZEROUPPER
	RET

// RELU is the conv's ReLU on v, max(v, 0): v ≤ 0 (−0 too) becomes +0, NaN
// stays; Y13 is zero, t scratch.
#define RELU(v, t) \
	VCMPPS  $2, Y13, v, t; \
	VANDNPS v, t, v

// JOINRELU is the residual join's ReLU on v: v < 0 becomes +0, −0 and NaN
// stay; Y13 is zero, t scratch.
#define JOINRELU(v, t) \
	VCMPPS  $1, Y13, v, t; \
	VANDNPS v, t, v

// func winoOutput(dst, m, join, bias *float32, ohw, ow, rows, cols, pairs int, relu bool)
TEXT ·winoOutput(SB), NOSPLIT, $0-73
	MOVQ dst+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ join+16(FP), R10
	MOVQ bias+24(FP), BX
	MOVQ ohw+32(FP), DX
	SHLQ $2, DX
	MOVQ ow+40(FP), R8
	SHLQ $2, R8
	MOVQ rows+48(FP), CX
	MOVQ cols+56(FP), AX
	MOVQ pairs+64(FP), R11
	MOVB relu+72(FP), R9
	NEGQ AX
	LEAQ winoLanes<>(SB), R12
	LEAQ 64(R12)(AX*4), R12
	VMOVDQU (R12), Y14
	VMOVDQU 32(R12), Y15
	VXORPS  Y13, Y13, Y13

outrow:
	// M's rows 0–2 (points ξ at ξ·384 bytes): P0 = M0 + M1 + M2, then
	// P1 = M1 − M2 − M3 with row 3.
	VMOVUPS (SI), Y0
	VMOVUPS 384(SI), Y1
	VMOVUPS 768(SI), Y2
	VMOVUPS 1152(SI), Y3
	VMOVUPS 1536(SI), Y4
	VMOVUPS 1920(SI), Y5
	VMOVUPS 2304(SI), Y6
	VMOVUPS 2688(SI), Y7
	VMOVUPS 3072(SI), Y8
	VMOVUPS 3456(SI), Y9
	VMOVUPS 3840(SI), Y10
	VMOVUPS 4224(SI), Y11
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	VADDPS  Y8, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y10, Y2, Y2
	VADDPS  Y11, Y3, Y3
	VSUBPS  Y8, Y4, Y4
	VSUBPS  Y9, Y5, Y5
	VSUBPS  Y10, Y6, Y6
	VSUBPS  Y11, Y7, Y7
	VMOVUPS 4608(SI), Y8
	VMOVUPS 4992(SI), Y9
	VMOVUPS 5376(SI), Y10
	VMOVUPS 5760(SI), Y11
	VSUBPS  Y8, Y4, Y4
	VSUBPS  Y9, Y5, Y5
	VSUBPS  Y10, Y6, Y6
	VSUBPS  Y11, Y7, Y7

	// Y = P·A: the tile's outputs (0,0), (0,1), (1,0), (1,1) in Y8–Y11.
	VADDPS Y1, Y0, Y8
	VADDPS Y2, Y8, Y8
	VSUBPS Y2, Y1, Y9
	VSUBPS Y3, Y9, Y9
	VADDPS Y5, Y4, Y10
	VADDPS Y6, Y10, Y10
	VSUBPS Y6, Y5, Y11
	VSUBPS Y7, Y11, Y11

	VBROADCASTSS (BX), Y0
	VADDPS       Y0, Y8, Y8
	VADDPS       Y0, Y9, Y9
	VADDPS       Y0, Y10, Y10
	VADDPS       Y0, Y11, Y11
	TESTB        R9, R9
	JZ           outweave
	RELU(Y8, Y0)
	RELU(Y9, Y0)
	RELU(Y10, Y0)
	RELU(Y11, Y0)

outweave:
	// Interleave each output row's two columns: tiles 0–3, then 4–7.
	VUNPCKLPS  Y9, Y8, Y0
	VUNPCKHPS  Y9, Y8, Y1
	VPERM2F128 $0x20, Y1, Y0, Y2
	VPERM2F128 $0x31, Y1, Y0, Y3
	VUNPCKLPS  Y11, Y10, Y0
	VUNPCKHPS  Y11, Y10, Y1
	VPERM2F128 $0x20, Y1, Y0, Y4
	VPERM2F128 $0x31, Y1, Y0, Y5
	TESTQ      R10, R10
	JZ         outstore
	VMASKMOVPS (R10), Y14, Y0
	VMASKMOVPS 32(R10), Y15, Y1
	VADDPS     Y0, Y2, Y2
	VADDPS     Y1, Y3, Y3
	JOINRELU(Y2, Y0)
	JOINRELU(Y3, Y1)
	CMPQ       R11, $2
	JNE        outjoined
	VMASKMOVPS (R10)(R8*1), Y14, Y0
	VMASKMOVPS 32(R10)(R8*1), Y15, Y1
	VADDPS     Y0, Y4, Y4
	VADDPS     Y1, Y5, Y5
	JOINRELU(Y4, Y0)
	JOINRELU(Y5, Y1)

outjoined:
	ADDQ DX, R10

outstore:
	VMASKMOVPS Y2, Y14, (DI)
	VMASKMOVPS Y3, Y15, 32(DI)
	CMPQ       R11, $2
	JNE        outnext
	VMASKMOVPS Y4, Y14, (DI)(R8*1)
	VMASKMOVPS Y5, Y15, 32(DI)(R8*1)

outnext:
	ADDQ DX, DI
	ADDQ $64, SI
	ADDQ $4, BX
	DECQ CX
	JNZ  outrow
	VZEROUPPER
	RET
