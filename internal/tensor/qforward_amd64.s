//go:build amd64

#include "textflag.h"

// The AVX2 kernels of the int8 forward around its micro-kernel: the u8
// quad panel mover, the conv's requantize epilogue, the residual add and
// the input quantizer. Each returns byte for byte what the Go loop it
// stands in for returns.

// qOffset is the +128 activation offset, a 0x80 XOR on every byte.
DATA qOffset<>+0(SB)/8, $0x8080808080808080
DATA qOffset<>+8(SB)/8, $0x8080808080808080
DATA qOffset<>+16(SB)/8, $0x8080808080808080
DATA qOffset<>+24(SB)/8, $0x8080808080808080
GLOBL qOffset<>(SB), RODATA|NOPTR, $32

// qEvens is the VPSHUFB control that gathers the eight even bytes of each
// 16-byte half into the half's low eight bytes.
DATA qEvens<>+0(SB)/8, $0x0e0c0a0806040200
DATA qEvens<>+8(SB)/8, $0x8080808080808080
DATA qEvens<>+16(SB)/8, $0x0e0c0a0806040200
DATA qEvens<>+24(SB)/8, $0x8080808080808080
GLOBL qEvens<>(SB), RODATA|NOPTR, $32

// qBitSel holds 1 << (i mod 8) in byte i and qSpread the VPSHUFB control
// that copies byte i/8 of a word into byte i: together they turn the
// sixteen bits of a lane mask into a byte mask.
DATA qBitSel<>+0(SB)/8, $0x8040201008040201
DATA qBitSel<>+8(SB)/8, $0x8040201008040201
GLOBL qBitSel<>(SB), RODATA|NOPTR, $16
DATA qSpread<>+0(SB)/8, $0x0000000000000000
DATA qSpread<>+8(SB)/8, $0x0101010101010101
GLOBL qSpread<>(SB), RODATA|NOPTR, $16

// qFirstLanes is sixteen all-ones dwords then sixteen zeros: the sixteen
// dwords from qFirstLanes + 4·(16 − n) have lanes [0, n) set.
DATA qFirstLanes<>+0(SB)/8, $-1
DATA qFirstLanes<>+8(SB)/8, $-1
DATA qFirstLanes<>+16(SB)/8, $-1
DATA qFirstLanes<>+24(SB)/8, $-1
DATA qFirstLanes<>+32(SB)/8, $-1
DATA qFirstLanes<>+40(SB)/8, $-1
DATA qFirstLanes<>+48(SB)/8, $-1
DATA qFirstLanes<>+56(SB)/8, $-1
DATA qFirstLanes<>+64(SB)/8, $0
DATA qFirstLanes<>+72(SB)/8, $0
DATA qFirstLanes<>+80(SB)/8, $0
DATA qFirstLanes<>+88(SB)/8, $0
DATA qFirstLanes<>+96(SB)/8, $0
DATA qFirstLanes<>+104(SB)/8, $0
DATA qFirstLanes<>+112(SB)/8, $0
DATA qFirstLanes<>+120(SB)/8, $0
GLOBL qFirstLanes<>(SB), RODATA|NOPTR, $128

// qActMax is QActMax as a float32, 127.
DATA qActMax<>+0(SB)/4, $0x42fe0000
GLOBL qActMax<>(SB), RODATA|NOPTR, $4

// QPACK16 rounds the sixteen float32 values of y0 and y1 to the int8 grid
// the Go loops compute with math.RoundToEven and their clamps: NaN becomes
// 0 (what Go's int8 conversion of a NaN gives), then every value is clamped
// to [lo, hi] and rounded half to even — at integer bounds, clamping before
// rounding is rounding before clamping. The sixteen bytes land in order in
// x0, y0's low half; y1 and t are scratch, x1 is y1's low half.
#define QPACK16(y0, y1, x0, x1, lo, hi, t) \
	VCMPPS      $7, y0, y0, t; \
	VANDPS      t, y0, y0; \
	VCMPPS      $7, y1, y1, t; \
	VANDPS      t, y1, y1; \
	VMAXPS      lo, y0, y0; \
	VMAXPS      lo, y1, y1; \
	VMINPS      hi, y0, y0; \
	VMINPS      hi, y1, y1; \
	VCVTPS2DQ   y0, y0; \
	VCVTPS2DQ   y1, y1; \
	VPACKSSDW   y1, y0, y0; \
	VPERMQ      $0xD8, y0, y0; \
	VEXTRACTI128 $1, y0, x1; \
	VPACKSSWB   x1, x0, x0

// ROTATE shifts the quad's tap vectors down one slot and puts X4 last.
#define ROTATE \
	VMOVDQA X1, X0; \
	VMOVDQA X2, X1; \
	VMOVDQA X3, X2; \
	VMOVDQA X4, X3

// func packQRun(dst *uint8, src *int8, lim, origin, hw, wskip, kw int, masks *int32, taps, chans, stride, store int)
//
// Register use: DI the quad being written, SI src, R8 lim, R9 channel
// ch's origin, R11 the tap's offset from it, R12 masks, R13 kx, R14 the
// tap, DX stride, BX the taps of the quad so far (slots X0..X3), AX the
// tap's offset into src, R10 its lane mask.
TEXT ·packQRun(SB), NOSPLIT, $16-96
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ lim+16(FP), R8
	MOVQ origin+24(FP), R9
	MOVQ masks+56(FP), R12
	MOVQ stride+80(FP), DX
	MOVQ store+88(FP), AX
	LEAQ qFirstLanes<>(SB), CX
	NEGQ AX
	LEAQ 64(CX)(AX*4), CX
	VMOVDQU (CX), Y14
	VMOVDQU 32(CX), Y15
	VMOVDQU qOffset<>(SB), Y10
	VMOVDQU qEvens<>(SB), Y11
	VMOVDQU qBitSel<>(SB), X12
	VMOVDQU qSpread<>(SB), X13
	XORQ    BX, BX
	XORQ    R11, R11
	XORQ    R13, R13
	XORQ    R14, R14

tap:
	MOVL  (R12)(R14*4), R10
	LEAQ  (R9)(R11*1), AX
	TESTL R10, R10
	JZ    tapzero
	CMPQ  AX, R8
	JHI   tapslow
	CMPQ  DX, $1
	JNE   tapload2
	VMOVDQU (SI)(AX*1), X4
	JMP   tapmask

tapload2:
	VMOVDQU (SI)(AX*1), Y4
	VPSHUFB Y11, Y4, Y4
	VPERMQ  $0x08, Y4, Y4

tapmask:
	// Lanes whose tap is in the padding, or past the run, read as 0.
	CMPL      R10, $0xFFFF
	JEQ       tapdone
	VMOVD     R10, X5
	VPSHUFB   X13, X5, X5
	VPAND     X12, X5, X5
	VPCMPEQB  X12, X5, X5
	VPAND     X5, X4, X4
	JMP       tapdone

tapzero:
	VPXOR X4, X4, X4
	JMP   tapdone

tapslow:
	// The tap's read would leave src: gather its lanes byte by byte into
	// the frame. Every lane set in the mask reads inside its own image.
	VPXOR   X4, X4, X4
	VMOVDQU X4, (SP)
	ADDQ    SI, AX
	CMPQ    DX, $1
	JNE     slow2

slow1:
	BSFL    R10, CX
	MOVBLZX (AX)(CX*1), R8
	MOVB    R8, (SP)(CX*1)
	BTRL    CX, R10
	TESTL   R10, R10
	JNZ     slow1
	JMP     slowdone

slow2:
	BSFL    R10, CX
	MOVBLZX (AX)(CX*2), R8
	MOVB    R8, (SP)(CX*1)
	BTRL    CX, R10
	TESTL   R10, R10
	JNZ     slow2

slowdone:
	MOVQ    lim+16(FP), R8
	VMOVDQU (SP), X4

tapdone:
	ROTATE
	INCQ BX
	CMPQ BX, $4
	JEQ  emit

next:
	// The next tap: kx, then ky, then the channel.
	INCQ R14
	CMPQ R14, taps+64(FP)
	JGE  nextchan
	INCQ R11
	INCQ R13
	CMPQ R13, kw+48(FP)
	JLT  tap
	XORQ R13, R13
	ADDQ wskip+40(FP), R11
	JMP  tap

nextchan:
	XORQ R14, R14
	XORQ R11, R11
	XORQ R13, R13
	ADDQ hw+32(FP), R9
	DECQ chans+72(FP)
	JNZ  tap
	TESTQ BX, BX
	JZ   done

pad:
	// k padding: the last quad's missing taps read as 0.
	VPXOR X4, X4, X4
	ROTATE
	INCQ  BX
	CMPQ  BX, $4
	JNE   pad

emit:
	// Interleave the four taps into one dword per lane, offset to u8.
	VPUNPCKLBW  X1, X0, X6
	VPUNPCKHBW  X1, X0, X7
	VPUNPCKLBW  X3, X2, X8
	VPUNPCKHBW  X3, X2, X9
	VPUNPCKLWD  X8, X6, X0
	VPUNPCKHWD  X8, X6, X1
	VPUNPCKLWD  X9, X7, X2
	VPUNPCKHWD  X9, X7, X3
	VINSERTI128 $1, X1, Y0, Y0
	VINSERTI128 $1, X3, Y2, Y2
	VPXOR       Y10, Y0, Y0
	VPXOR       Y10, Y2, Y2
	XORQ        BX, BX
	CMPQ        store+88(FP), $16
	JNE         emitmask
	VMOVDQU     Y0, (DI)
	VMOVDQU     Y2, 32(DI)
	JMP         emitted

emitmask:
	VPMASKMOVD Y0, Y14, (DI)
	VPMASKMOVD Y2, Y15, 32(DI)

emitted:
	ADDQ $64, DI
	CMPQ chans+72(FP), $0
	JNE  next

done:
	VZEROUPPER
	RET

// func qstoreTile(dst *int8, src, comp *int32, mult, add *float32, dstStride, rows, n int, lo float32)
TEXT ·qstoreTile(SB), NOSPLIT, $0-68
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         comp+16(FP), R8
	MOVQ         mult+24(FP), R9
	MOVQ         add+32(FP), R10
	MOVQ         dstStride+40(FP), DX
	MOVQ         rows+48(FP), CX
	MOVQ         n+56(FP), AX
	VBROADCASTSS lo+64(FP), Y13
	VBROADCASTSS qActMax<>(SB), Y12

storerow:
	VPBROADCASTD (R8), Y2
	VMOVDQU      (SI), Y0
	VMOVDQU      32(SI), Y1
	VPSUBD       Y2, Y0, Y0
	VPSUBD       Y2, Y1, Y1
	VCVTDQ2PS    Y0, Y0
	VCVTDQ2PS    Y1, Y1
	VBROADCASTSS (R9), Y2
	VMULPS       Y2, Y0, Y0
	VMULPS       Y2, Y1, Y1
	VBROADCASTSS (R10), Y2
	VADDPS       Y2, Y0, Y0
	VADDPS       Y2, Y1, Y1
	QPACK16(Y0, Y1, X0, X1, Y13, Y12, Y3)
	CMPQ         AX, $16
	JNE          storepart
	VMOVDQU      X0, (DI)
	JMP          storenext

storepart:
	// The first n bytes: 8, 4, 2 and 1 by the bits of n.
	MOVQ    DI, R11
	TESTQ   $8, AX
	JZ      store4
	VMOVQ   X0, (R11)
	VPSRLDQ $8, X0, X0
	ADDQ    $8, R11

store4:
	TESTQ   $4, AX
	JZ      store2
	VMOVD   X0, (R11)
	VPSRLDQ $4, X0, X0
	ADDQ    $4, R11

store2:
	TESTQ   $2, AX
	JZ      store1
	VMOVD   X0, BX
	MOVW    BX, (R11)
	VPSRLDQ $2, X0, X0
	ADDQ    $2, R11

store1:
	TESTQ $1, AX
	JZ    storenext
	VMOVD X0, BX
	MOVB  BX, (R11)

storenext:
	ADDQ DX, DI
	ADDQ $64, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	DECQ CX
	JNZ  storerow
	VZEROUPPER
	RET

// func qaddBlocks(dst, a, b *int8, n int, ra, rb, lo float32)
TEXT ·qaddBlocks(SB), NOSPLIT, $0-44
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS ra+32(FP), Y10
	VBROADCASTSS rb+36(FP), Y11
	VBROADCASTSS lo+40(FP), Y13
	VBROADCASTSS qActMax<>(SB), Y12

addblock:
	VPMOVSXBD (SI), Y0
	VPMOVSXBD 8(SI), Y1
	VPMOVSXBD (DX), Y2
	VPMOVSXBD 8(DX), Y3
	VCVTDQ2PS Y0, Y0
	VCVTDQ2PS Y1, Y1
	VCVTDQ2PS Y2, Y2
	VCVTDQ2PS Y3, Y3
	VMULPS    Y10, Y0, Y0
	VMULPS    Y10, Y1, Y1
	VMULPS    Y11, Y2, Y2
	VMULPS    Y11, Y3, Y3
	VADDPS    Y2, Y0, Y0
	VADDPS    Y3, Y1, Y1
	QPACK16(Y0, Y1, X0, X1, Y13, Y12, Y4)
	VMOVDQU   X0, (DI)
	ADDQ      $16, SI
	ADDQ      $16, DX
	ADDQ      $16, DI
	SUBQ      $16, CX
	JNZ       addblock
	VZEROUPPER
	RET

// func quantizeBlocks(dst *int8, src *float32, n int, inv float32)
TEXT ·quantizeBlocks(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y10
	VBROADCASTSS qActMax<>(SB), Y12
	VXORPS       Y13, Y13, Y13
	VSUBPS       Y12, Y13, Y13

quantblock:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMULPS  Y10, Y0, Y0
	VMULPS  Y10, Y1, Y1
	QPACK16(Y0, Y1, X0, X1, Y13, Y12, Y4)
	VMOVDQU X0, (DI)
	ADDQ    $64, SI
	ADDQ    $16, DI
	SUBQ    $16, CX
	JNZ     quantblock
	VZEROUPPER
	RET
