//go:build amd64

#include "textflag.h"

// NormFloat64s' two AVX2 kernels. normDraw4 draws a block's polar
// candidates four at a time and packs the accepted ones; normScale4 turns
// accepted pairs into deviates, m = √(−2·ln s / s), then u·m and v·m.
//
// Bit identity with NormFloat64 rests on two replicas. The draws repeat
// SplitMix64 and Float64's arithmetic exactly (64-bit multiplies from
// VPMULUDQ halves; 2·(y/2⁵³)−1 is exact, so it is formed exactly from y's
// bits). The logarithm, LOG4, is $GOROOT/src/math/log_amd64.s
// (math.archLog, what math.Log runs on amd64) lane for lane, operation for
// operation:
//
//   - frexp by mask: f1 = mantissa | 0x3FE0…, k = (2^52 | e) − (2^52 + 1022),
//     both exact;
//   - the select is f1 ≤ √2/2 (CMPSD predicate 5, not-less-than, with √2/2
//     first), then k −= 0|1 and f1 ·= 1|2 exactly as the ANDPD/ADDSD pair;
//   - f = f1 − 1, s = f / (2 + f), the polynomial in log_amd64.s's
//     association, hfsq = (0.5·f)·f and
//     k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
//
// There is no VFMADD anywhere: a fused multiply-add rounds once where the
// reference rounds twice. LOG4 is archLog for every positive normal
// number; normScale4's inputs are in (0, 1), so archLog's zero, negative,
// Inf and NaN branches never apply.

#define QUAD4(sym, bits) \
	DATA sym+0(SB)/8, bits; \
	DATA sym+8(SB)/8, bits; \
	DATA sym+16(SB)/8, bits; \
	DATA sym+24(SB)/8, bits; \
	GLOBL sym(SB), RODATA|NOPTR, $32

QUAD4(normMant<>, $0x000FFFFFFFFFFFFF)
QUAD4(normHalf<>, $0x3FE0000000000000)      // 0.5
QUAD4(normOne<>, $0x3FF0000000000000)       // 1
QUAD4(normTwo<>, $0x4000000000000000)       // 2
QUAD4(normMinusTwo<>, $0xC000000000000000)  // −2
QUAD4(normTwo52<>, $0x4330000000000000)     // 2^52
QUAD4(normTwo52Bias<>, $0x43300000000003FE) // 2^52 + 1022
QUAD4(normHSqrt2<>, $0x3FE6A09E667F3BCD)    // √2/2
QUAD4(normLn2Hi<>, $0x3FE62E42FEE00000)
QUAD4(normLn2Lo<>, $0x3DEA39EF35793C76)
QUAD4(normL1<>, $0x3FE5555555555593)
QUAD4(normL2<>, $0x3FD999999997FA04)
QUAD4(normL3<>, $0x3FD2492494229359)
QUAD4(normL4<>, $0x3FCC71C51D8E78AF)
QUAD4(normL5<>, $0x3FC7466496CB03DE)
QUAD4(normL6<>, $0x3FC39A09D078C69F)
QUAD4(normL7<>, $0x3FC2F112DF3E5244)

// SplitMix64's multipliers as VPMULUDQ operands (low, high 32 bits), and
// the state offsets of a group's four u and four v draws: candidate j of a
// group draws u from state + (2j+1)γ and v from state + (2j+2)γ.
QUAD4(drawM1Lo<>, $0x1CE4E5B9)
QUAD4(drawM1Hi<>, $0xBF58476D)
QUAD4(drawM2Lo<>, $0x133111EB)
QUAD4(drawM2Hi<>, $0x94D049BB)
QUAD4(drawStep<>, $0xF1BBCDCBFA53E0A8) // 8γ
DATA drawGammaU<>+0(SB)/8, $0x9E3779B97F4A7C15
DATA drawGammaU<>+8(SB)/8, $0xDAA66D2C7DDF743F
DATA drawGammaU<>+16(SB)/8, $0x1715609F7C746C69
DATA drawGammaU<>+24(SB)/8, $0x538454127B096493
GLOBL drawGammaU<>(SB), RODATA|NOPTR, $32
DATA drawGammaV<>+0(SB)/8, $0x3C6EF372FE94F82A
DATA drawGammaV<>+8(SB)/8, $0x78DDE6E5FD29F054
DATA drawGammaV<>+16(SB)/8, $0xB54CDA58FBBEE87E
DATA drawGammaV<>+24(SB)/8, $0xF1BBCDCBFA53E0A8
GLOBL drawGammaV<>(SB), RODATA|NOPTR, $32

// drawPack holds, for each 4-bit acceptance mask, the VPERMPS indices that
// move the accepted float64 lanes to the front in order; drawCount holds
// the mask's population count.
#define LANE0 $0x0000000100000000
#define LANE1 $0x0000000300000002
#define LANE2 $0x0000000500000004
#define LANE3 $0x0000000700000006
#define PACK(m, a, b, c, d, n) \
	DATA drawPack<>+(m*32)(SB)/8, a; \
	DATA drawPack<>+(m*32+8)(SB)/8, b; \
	DATA drawPack<>+(m*32+16)(SB)/8, c; \
	DATA drawPack<>+(m*32+24)(SB)/8, d; \
	DATA drawCount<>+(m)(SB)/1, $n

PACK(0, $0, $0, $0, $0, 0)
PACK(1, LANE0, $0, $0, $0, 1)
PACK(2, LANE1, $0, $0, $0, 1)
PACK(3, LANE0, LANE1, $0, $0, 2)
PACK(4, LANE2, $0, $0, $0, 1)
PACK(5, LANE0, LANE2, $0, $0, 2)
PACK(6, LANE1, LANE2, $0, $0, 2)
PACK(7, LANE0, LANE1, LANE2, $0, 3)
PACK(8, LANE3, $0, $0, $0, 1)
PACK(9, LANE0, LANE3, $0, $0, 2)
PACK(10, LANE1, LANE3, $0, $0, 2)
PACK(11, LANE0, LANE1, LANE3, $0, 3)
PACK(12, LANE2, LANE3, $0, $0, 2)
PACK(13, LANE0, LANE2, LANE3, $0, 3)
PACK(14, LANE1, LANE2, LANE3, $0, 3)
PACK(15, LANE0, LANE1, LANE2, LANE3, 4)
GLOBL drawPack<>(SB), RODATA|NOPTR, $512
GLOBL drawCount<>(SB), RODATA|NOPTR, $16

// MUL64: z = z·M mod 2⁶⁴ on four lanes, M given as its 32-bit halves:
// lo(z)·lo(M) + ((hi(z)·lo(M) + lo(z)·hi(M)) << 32). Clobbers t1, t2.
#define MUL64(z, mlo, mhi, t1, t2) \
	VPMULUDQ mlo, z, t1; \
	VPSRLQ   $32, z, t2; \
	VPMULUDQ mlo, t2, t2; \
	VPMULUDQ mhi, z, z; \
	VPADDQ   t2, z, z; \
	VPSLLQ   $32, z, z; \
	VPADDQ   t1, z, z

// DRAW: z = 2·Float64() − 1 for four advanced SplitMix64 states in z.
// With y = mix(z) >> 11 = b·2⁵² + m, 2·(y/2⁵³) − 1 = (F − 2) + b where
// F = 1 + m·2⁻⁵² has the bits m | 0x3FF0…; both steps are exact, as every
// step of the scalar form is. Clobbers t1, t2.
#define DRAW(z, t1, t2) \
	VPSRLQ    $30, z, t1; \
	VPXOR     t1, z, z; \
	MUL64(z, drawM1Lo<>(SB), drawM1Hi<>(SB), t1, t2); \
	VPSRLQ    $27, z, t1; \
	VPXOR     t1, z, z; \
	MUL64(z, drawM2Lo<>(SB), drawM2Hi<>(SB), t1, t2); \
	VPSRLQ    $31, z, t1; \
	VPXOR     t1, z, z; \
	VPXOR     t1, t1, t1; \
	VPCMPGTQ  z, t1, t1; \
	VANDPD    normOne<>(SB), t1, t1; \
	VPSRLQ    $11, z, z; \
	VPAND     normMant<>(SB), z, z; \
	VPOR      normOne<>(SB), z, z; \
	VSUBPD    normTwo<>(SB), z, z; \
	VADDPD    t1, z, z

// LOG4: Y1 = ln Y0, four lanes; clobbers Y2–Y6. Register roles follow
// log_amd64.s: Y1 = k, Y2 = f1 then f, Y3 = s, Y4 = s2/t1/R, Y5 = s4/t2,
// Y6 = the polynomial temporaries, then hfsq.
#define LOG4 \
	VANDPD  normMant<>(SB), Y0, Y2; \
	VORPD   normHalf<>(SB), Y2, Y2; \
	VPSRLQ  $52, Y0, Y1; \
	VPOR    normTwo52<>(SB), Y1, Y1; \
	VSUBPD  normTwo52Bias<>(SB), Y1, Y1; \
	VCMPPD  $2, normHSqrt2<>(SB), Y2, Y3; \
	VANDPD  normOne<>(SB), Y3, Y3; \
	VSUBPD  Y3, Y1, Y1; \
	VADDPD  normOne<>(SB), Y3, Y3; \
	VMULPD  Y3, Y2, Y2; \
	VSUBPD  normOne<>(SB), Y2, Y2; \
	VADDPD  normTwo<>(SB), Y2, Y3; \
	VDIVPD  Y3, Y2, Y3; \
	VMULPD  Y3, Y3, Y4; \
	VMULPD  Y4, Y4, Y5; \
	VMULPD  normL7<>(SB), Y5, Y6; \
	VADDPD  normL5<>(SB), Y6, Y6; \
	VMULPD  Y5, Y6, Y6; \
	VADDPD  normL3<>(SB), Y6, Y6; \
	VMULPD  Y5, Y6, Y6; \
	VADDPD  normL1<>(SB), Y6, Y6; \
	VMULPD  Y6, Y4, Y4; \
	VMULPD  normL6<>(SB), Y5, Y6; \
	VADDPD  normL4<>(SB), Y6, Y6; \
	VMULPD  Y5, Y6, Y6; \
	VADDPD  normL2<>(SB), Y6, Y6; \
	VMULPD  Y6, Y5, Y5; \
	VADDPD  Y5, Y4, Y4; \
	VMULPD  normHalf<>(SB), Y2, Y6; \
	VMULPD  Y2, Y6, Y6; \
	VADDPD  Y6, Y4, Y4; \
	VMULPD  Y4, Y3, Y3; \
	VMULPD  normLn2Lo<>(SB), Y1, Y4; \
	VADDPD  Y4, Y3, Y3; \
	VSUBPD  Y3, Y6, Y6; \
	VSUBPD  Y2, Y6, Y6; \
	VMULPD  normLn2Hi<>(SB), Y1, Y1; \
	VSUBPD  Y6, Y1, Y1

// func normDraw4(u, v, s *float64, n int, state uint64) (cands int)
//
// Y9/Y10 hold the group's u/v states, AX the accepted count, R8 the
// candidates drawn. Each group stores its packed lanes at the accepted
// count (up to three past n, into the caller's slack).
TEXT ·normDraw4(SB), NOSPLIT, $0-48
	MOVQ         u+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         s+16(FP), DX
	MOVQ         n+24(FP), CX
	VPBROADCASTQ state+32(FP), Y9
	VPADDQ       drawGammaV<>(SB), Y9, Y10
	VPADDQ       drawGammaU<>(SB), Y9, Y9
	LEAQ         drawPack<>(SB), R9
	LEAQ         drawCount<>(SB), R10
	XORQ         AX, AX
	XORQ         R8, R8

drawloop:
	VMOVDQU   Y9, Y0
	DRAW(Y0, Y6, Y7)
	VMOVDQU   Y10, Y1
	DRAW(Y1, Y6, Y7)
	VMULPD    Y0, Y0, Y2
	VMULPD    Y1, Y1, Y3
	VADDPD    Y3, Y2, Y2
	VCMPPD    $1, normOne<>(SB), Y2, Y3
	VXORPD    Y4, Y4, Y4
	VCMPPD    $1, Y2, Y4, Y4
	VANDPD    Y3, Y4, Y4
	VMOVMSKPD Y4, BX
	MOVQ      BX, R12
	SHLQ      $5, R12
	VMOVDQU   (R9)(R12*1), Y5
	VPERMPS   Y0, Y5, Y0
	VPERMPS   Y1, Y5, Y1
	VPERMPS   Y2, Y5, Y2
	VMOVUPD   Y0, (DI)(AX*8)
	VMOVUPD   Y1, (SI)(AX*8)
	VMOVUPD   Y2, (DX)(AX*8)
	MOVBQZX   (R10)(BX*1), R11
	ADDQ      R11, AX
	ADDQ      $4, R8
	VPADDQ    drawStep<>(SB), Y9, Y9
	VPADDQ    drawStep<>(SB), Y10, Y10
	CMPQ      AX, CX
	JLT       drawloop

	// The last group may have accepted candidates past the n-th: walk its
	// mask (BX) to the n-th acceptance, which is bit R11 of the group's
	// set bits, and count the candidates up to it.
	SUBQ R11, AX
	MOVQ CX, R11
	SUBQ AX, R11
	SUBQ $4, R8

drawlane:
	MOVQ  BX, R12
	ANDQ  $1, R12
	SUBQ  R12, R11
	INCQ  R8
	SHRQ  $1, BX
	TESTQ R11, R11
	JNZ   drawlane

	MOVQ       R8, cands+40(FP)
	VZEROUPPER
	RET

// func normScale4(dst, u, v, s *float64, n int)
//
// Per group of four pairs: m = √((−2·ln s) / s) in Y1, then u·m and v·m
// interleaved into (u0m0 v0m0 u1m1 v1m1) (u2m2 v2m2 u3m3 v3m3).
TEXT ·normScale4(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ u+8(FP), R8
	MOVQ v+16(FP), R9
	MOVQ s+24(FP), SI
	MOVQ n+32(FP), CX
	SHRQ $2, CX
	JZ   scaledone

scaleloop:
	VMOVUPD    (SI), Y0
	LOG4
	VMULPD     normMinusTwo<>(SB), Y1, Y1
	VDIVPD     Y0, Y1, Y1
	VSQRTPD    Y1, Y1
	VMULPD     (R8), Y1, Y2
	VMULPD     (R9), Y1, Y3
	VUNPCKLPD  Y3, Y2, Y4
	VUNPCKHPD  Y3, Y2, Y5
	VPERM2F128 $0x20, Y5, Y4, Y2
	VPERM2F128 $0x31, Y5, Y4, Y3
	VMOVUPD    Y2, (DI)
	VMOVUPD    Y3, 32(DI)
	ADDQ       $32, SI
	ADDQ       $32, R8
	ADDQ       $32, R9
	ADDQ       $64, DI
	DECQ       CX
	JNZ        scaleloop

scaledone:
	VZEROUPPER
	RET

// func normLog4(dst, x *float64, n int)
TEXT ·normLog4(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	JZ   logdone

logloop:
	VMOVUPD (SI), Y0
	LOG4
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     logloop

logdone:
	VZEROUPPER
	RET
