//go:build amd64 && !purego

#include "textflag.h"

// AVX2 implementations of every kernel-table entry (see
// kernels_dispatch.go and docs/kernels.md): the nCat == 4 GAMMA newview
// shapes and makenewz core, the CAT newview shapes and site kernels,
// and the 4-lane log. All are written to be bit-identical to their
// scalar references: every 4-term dot product is a VMULPD followed by
// the VHADDPD / VPERM2F128 / VBLENDPD / VADDPD combine — the same
// pairwise association the scalar code spells out — every other sum
// runs in the scalar order, and no FMA contraction is used anywhere, so
// scalar and asm round identically at every step.

// scaleThresh = 1e-256, scaleFact = 1e256 (engine.go constants),
// one = 1.0, tiny = math.SmallestNonzeroFloat64.
DATA scaleThresh<>+0(SB)/8, $0x0AC8062864AC6F43
GLOBL scaleThresh<>(SB), RODATA, $8
DATA scaleFact<>+0(SB)/8, $0x75154FDD7F73BF3C
GLOBL scaleFact<>(SB), RODATA, $8
DATA one<>+0(SB)/8, $0x3FF0000000000000
GLOBL one<>(SB), RODATA, $8
DATA tiny<>+0(SB)/8, $0x0000000000000001
GLOBL tiny<>(SB), RODATA, $8

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// matvec4(matrix at mbase, lane vector in Y0) -> dot vector in Ydst.
// t_r = P[r] .* c (VMULPD); h01 = [t0lo t1lo t0hi t1hi],
// h23 = [t2lo t3lo t2hi t3hi] (VHADDPD); perm = [t0hi t1hi t2lo t3lo],
// blend = [t0lo t1lo t2hi t3hi]; dst = perm + blend = row dots.
#define MATVEC4(mbase, moff, dst) \
	VMULPD  moff+0(mbase), Y0, Y1  \
	VMULPD  moff+32(mbase), Y0, Y2 \
	VMULPD  moff+64(mbase), Y0, Y3 \
	VMULPD  moff+96(mbase), Y0, Y4 \
	VHADDPD Y2, Y1, Y5             \
	VHADDPD Y4, Y3, Y6             \
	VPERM2F128 $0x21, Y6, Y5, Y7   \
	VBLENDPD $12, Y6, Y5, Y8       \
	VADDPD  Y8, Y7, dst

// One GAMMA category of the inner×inner newview: lane block c of the
// left/right child CLVs through matrices c of pL/pR, product stored to
// dst, running max in Y12.
#define NVCAT(c) \
	VMOVUPD (c*32)(SI), Y0   \
	MATVEC4(R8, c*128, Y9)   \
	VMOVUPD (c*32)(DX), Y0   \
	MATVEC4(R9, c*128, Y10)  \
	VMULPD  Y10, Y9, Y11     \
	VMOVUPD Y11, (c*32)(DI)  \
	VMAXPD  Y11, Y12, Y12

// func newviewII4AVX2(n int, dst, lv, rv *float64, pL, pR *[16]float64, lsc, rsc, dsc *int32)
TEXT ·newviewII4AVX2(SB), NOSPLIT, $0-72
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ lv+16(FP), SI
	MOVQ rv+24(FP), DX
	MOVQ pL+32(FP), R8
	MOVQ pR+40(FP), R9
	MOVQ lsc+48(FP), R10
	MOVQ rsc+56(FP), R11
	MOVQ dsc+64(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VMOVSD scaleThresh<>(SB), X15

nvloop:
	VXORPD Y12, Y12, Y12
	NVCAT(0)
	NVCAT(1)
	NVCAT(2)
	NVCAT(3)

	// dsc = lsc + rsc (+1 on rescale)
	MOVL (R10), AX
	ADDL (R11), AX

	// horizontal max of the 16 lanes, compare against the threshold
	VEXTRACTF128 $1, Y12, X0
	VMAXPD X0, X12, X1
	VPERMILPD $1, X1, X2
	VMAXSD X2, X1, X1
	VUCOMISD X15, X1
	JAE nvstore

	// rare path: every lane below threshold, multiply block by 1e256
	VMULPD 0(DI), Y13, Y0
	VMOVUPD Y0, 0(DI)
	VMULPD 32(DI), Y13, Y0
	VMOVUPD Y0, 32(DI)
	VMULPD 64(DI), Y13, Y0
	VMOVUPD Y0, 64(DI)
	VMULPD 96(DI), Y13, Y0
	VMOVUPD Y0, 96(DI)
	INCL AX

nvstore:
	MOVL AX, (R12)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, R12
	DECQ CX
	JNZ nvloop
	VZEROUPPER
	RET

// func newviewTT4AVX2(n int, dst *float64, codesL, codesR *msa.State, lutL, lutR *float64, dsc *int32)
TEXT ·newviewTT4AVX2(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ codesL+16(FP), R8
	MOVQ codesR+24(FP), R9
	MOVQ lutL+32(FP), SI
	MOVQ lutR+40(FP), DX
	MOVQ dsc+48(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VMOVSD scaleThresh<>(SB), X15

tt4loop:
	// code block offsets: state * 16 lanes * 8 bytes
	MOVBLZX (R8), AX
	SHLQ $7, AX
	MOVBLZX (R9), BX
	SHLQ $7, BX
	VXORPD Y12, Y12, Y12
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  (DX)(BX*1), Y0, Y1
	VMOVUPD Y1, (DI)
	VMAXPD  Y1, Y12, Y12
	VMOVUPD 32(SI)(AX*1), Y0
	VMULPD  32(DX)(BX*1), Y0, Y1
	VMOVUPD Y1, 32(DI)
	VMAXPD  Y1, Y12, Y12
	VMOVUPD 64(SI)(AX*1), Y0
	VMULPD  64(DX)(BX*1), Y0, Y1
	VMOVUPD Y1, 64(DI)
	VMAXPD  Y1, Y12, Y12
	VMOVUPD 96(SI)(AX*1), Y0
	VMULPD  96(DX)(BX*1), Y0, Y1
	VMOVUPD Y1, 96(DI)
	VMAXPD  Y1, Y12, Y12

	XORL R13, R13
	VEXTRACTF128 $1, Y12, X0
	VMAXPD X0, X12, X1
	VPERMILPD $1, X1, X2
	VMAXSD X2, X1, X1
	VUCOMISD X15, X1
	JAE tt4store

	VMULPD 0(DI), Y13, Y0
	VMOVUPD Y0, 0(DI)
	VMULPD 32(DI), Y13, Y0
	VMOVUPD Y0, 32(DI)
	VMULPD 64(DI), Y13, Y0
	VMOVUPD Y0, 64(DI)
	VMULPD 96(DI), Y13, Y0
	VMOVUPD Y0, 96(DI)
	MOVL $1, R13

tt4store:
	MOVL R13, (R12)
	ADDQ $128, DI
	INCQ R8
	INCQ R9
	ADDQ $4, R12
	DECQ CX
	JNZ tt4loop
	VZEROUPPER
	RET

// One GAMMA category of the tip×inner newview: the inner child's lane
// block through matrix c of pm, scaled elementwise by the tip's lookup
// block (base SI + code offset AX), running max in Y12.
#define TICAT(c) \
	VMOVUPD (c*32)(DX), Y0          \
	MATVEC4(R9, c*128, Y9)          \
	VMULPD  (c*32)(SI)(AX*1), Y9, Y11 \
	VMOVUPD Y11, (c*32)(DI)         \
	VMAXPD  Y11, Y12, Y12

// func newviewTI4AVX2(n int, dst *float64, codes *msa.State, lut, iv *float64, pm *[16]float64, isc, dsc *int32)
TEXT ·newviewTI4AVX2(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ codes+16(FP), R8
	MOVQ lut+24(FP), SI
	MOVQ iv+32(FP), DX
	MOVQ pm+40(FP), R9
	MOVQ isc+48(FP), R10
	MOVQ dsc+56(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VMOVSD scaleThresh<>(SB), X15

ti4loop:
	MOVBLZX (R8), AX
	SHLQ $7, AX
	VXORPD Y12, Y12, Y12
	TICAT(0)
	TICAT(1)
	TICAT(2)
	TICAT(3)

	MOVL (R10), BX
	VEXTRACTF128 $1, Y12, X0
	VMAXPD X0, X12, X1
	VPERMILPD $1, X1, X2
	VMAXSD X2, X1, X1
	VUCOMISD X15, X1
	JAE ti4store

	VMULPD 0(DI), Y13, Y0
	VMOVUPD Y0, 0(DI)
	VMULPD 32(DI), Y13, Y0
	VMOVUPD Y0, 32(DI)
	VMULPD 64(DI), Y13, Y0
	VMOVUPD Y0, 64(DI)
	VMULPD 96(DI), Y13, Y0
	VMOVUPD Y0, 96(DI)
	INCL BX

ti4store:
	MOVL BX, (R12)
	ADDQ $128, DI
	ADDQ $128, DX
	INCQ R8
	ADDQ $4, R10
	ADDQ $4, R12
	DECQ CX
	JNZ ti4loop
	VZEROUPPER
	RET

// One derivative order of the makenewz core: 16-term dot of the
// sumtable block (Y0..Y3) against the factor block at foff(R11),
// reduced (s0+s1)+(s2+s3) into the low lane of dst (an X register).
#define MKZDOT(foff, dst) \
	VMULPD  foff+0(R11), Y0, Y4  \
	VMULPD  foff+32(R11), Y1, Y5 \
	VMULPD  foff+64(R11), Y2, Y6 \
	VMULPD  foff+96(R11), Y3, Y7 \
	VHADDPD Y5, Y4, Y8           \
	VHADDPD Y7, Y6, Y9           \
	VPERM2F128 $0x21, Y9, Y8, Y10 \
	VBLENDPD $12, Y9, Y8, Y11    \
	VADDPD  Y11, Y10, Y8         \
	VHADDPD Y8, Y8, Y9           \
	VEXTRACTF128 $1, Y9, X10     \
	VADDSD  X10, X9, dst

// func mkzCoreG4AVX2(n int, tbl *float64, w *int, pw *float64) (d1, d2 float64)
TEXT ·mkzCoreG4AVX2(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ tbl+8(FP), SI
	MOVQ w+16(FP), R10
	MOVQ pw+24(FP), R11
	VXORPD X12, X12, X12 // s1
	VXORPD X13, X13, X13 // s2

mkzloop:
	MOVQ (R10), BX
	ADDQ $8, R10
	TESTQ BX, BX
	JEQ mkznext

	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3

	MKZDOT(0, X14)   // siteL
	VUCOMISD tiny<>(SB), X14
	JB mkznext       // siteL < SmallestNonzeroFloat64: dead pattern

	MKZDOT(128, X15) // siteD1
	MKZDOT(256, X11) // siteD2

	VMOVSD one<>(SB), X10
	VDIVSD X14, X10, X10     // inv = 1 / siteL (the only division)
	VMULSD X10, X15, X9      // ratio = siteD1 * inv
	VCVTSI2SDQ BX, X8, X8    // wk as float64
	VMULSD X9, X8, X7        // wk * ratio
	VADDSD X7, X12, X12      // s1 += wk * ratio
	VMULSD X10, X11, X6      // siteD2 * inv
	VMULSD X9, X9, X5        // ratio^2
	VSUBSD X5, X6, X6        // siteD2*inv - ratio^2
	VMULSD X6, X8, X6        // * wk
	VADDSD X6, X13, X13      // s2 += ...

mkznext:
	ADDQ $128, SI
	DECQ CX
	JNZ mkzloop
	VMOVSD X12, d1+32(FP)
	VMOVSD X13, d2+40(FP)
	VZEROUPPER
	RET

// ---- CAT kernels -------------------------------------------------------
//
// One 4-lane block per pattern; the pattern's category cat[k] selects
// its matrix (byte offset cat[k]*128) and, for tips, its lookup-table
// block (byte offset (code*npc + cat[k])*32). A category outside
// [0, npc) stops the kernel with ok = false before anything is read
// through it. The rescale decision is
// one VCMPPD "lane < threshold" and a mask test: all four lanes below
// threshold, exactly the scalar && chain, NaN lanes included.

// canonNaN is the NaN math.Max returns for a NaN argument.
DATA canonNaN<>+0(SB)/8, $0x7FF8000000000001
GLOBL canonNaN<>(SB), RODATA, $8

// func newviewTTCATAVX2(n int, dst *float64, codesL, codesR *msa.State, cat *int, npc int, lutL, lutR *float64, dsc *int32) (ok bool)
TEXT ·newviewTTCATAVX2(SB), NOSPLIT, $0-73
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ codesL+16(FP), R8
	MOVQ codesR+24(FP), R9
	MOVQ cat+32(FP), BX
	MOVQ npc+40(FP), R11
	MOVQ lutL+48(FP), SI
	MOVQ lutR+56(FP), DX
	MOVQ dsc+64(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VBROADCASTSD scaleThresh<>(SB), Y15

ttcloop:
	MOVQ (BX), R13
	CMPQ R13, R11
	JAE ttcbad
	MOVBLZX (R8), AX
	IMULQ R11, AX
	ADDQ R13, AX
	SHLQ $5, AX
	MOVBLZX (R9), R10
	IMULQ R11, R10
	ADDQ R13, R10
	SHLQ $5, R10
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  (DX)(R10*1), Y0, Y11
	XORL AX, AX
	VCMPPD $1, Y15, Y11, Y12
	VMOVMSKPD Y12, R13
	CMPL R13, $15
	JNE ttcstore
	VMULPD Y13, Y11, Y11
	MOVL $1, AX

ttcstore:
	VMOVUPD Y11, (DI)
	MOVL AX, (R12)
	ADDQ $32, DI
	INCQ R8
	INCQ R9
	ADDQ $8, BX
	ADDQ $4, R12
	DECQ CX
	JNZ ttcloop
	MOVB $1, ok+72(FP)
	VZEROUPPER
	RET

ttcbad:
	MOVB $0, ok+72(FP)
	VZEROUPPER
	RET

// func newviewTICATAVX2(n int, dst *float64, codes *msa.State, cat *int, npc int, lut, iv *float64, pm *[16]float64, isc, dsc *int32) (ok bool)
TEXT ·newviewTICATAVX2(SB), NOSPLIT, $0-81
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ codes+16(FP), R8
	MOVQ cat+24(FP), BX
	MOVQ npc+32(FP), R11
	MOVQ lut+40(FP), SI
	MOVQ iv+48(FP), DX
	MOVQ pm+56(FP), R9
	MOVQ isc+64(FP), R10
	MOVQ dsc+72(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VBROADCASTSD scaleThresh<>(SB), Y15

ticloop:
	MOVQ (BX), R13
	CMPQ R13, R11
	JAE ticbad
	MOVBLZX (R8), AX
	IMULQ R11, AX
	ADDQ R13, AX
	SHLQ $5, AX
	SHLQ $7, R13
	ADDQ R9, R13
	VMOVUPD (DX), Y0
	MATVEC4(R13, 0, Y9)
	VMULPD (SI)(AX*1), Y9, Y11
	MOVL (R10), AX
	VCMPPD $1, Y15, Y11, Y12
	VMOVMSKPD Y12, R13
	CMPL R13, $15
	JNE ticstore
	VMULPD Y13, Y11, Y11
	INCL AX

ticstore:
	VMOVUPD Y11, (DI)
	MOVL AX, (R12)
	ADDQ $32, DI
	ADDQ $32, DX
	INCQ R8
	ADDQ $8, BX
	ADDQ $4, R10
	ADDQ $4, R12
	DECQ CX
	JNZ ticloop
	MOVB $1, ok+80(FP)
	VZEROUPPER
	RET

ticbad:
	MOVB $0, ok+80(FP)
	VZEROUPPER
	RET

// func newviewIICATAVX2(n int, dst, lv, rv *float64, cat *int, npc int, pL, pR *[16]float64, lsc, rsc, dsc *int32) (ok bool)
TEXT ·newviewIICATAVX2(SB), NOSPLIT, $0-89
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ lv+16(FP), SI
	MOVQ rv+24(FP), DX
	MOVQ cat+32(FP), BX
	MOVQ pL+48(FP), R8
	MOVQ pR+56(FP), R9
	MOVQ lsc+64(FP), R10
	MOVQ rsc+72(FP), R11
	MOVQ dsc+80(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VBROADCASTSD scaleThresh<>(SB), Y15

iicloop:
	MOVQ (BX), AX
	CMPQ AX, npc+40(FP)
	JAE iicbad
	SHLQ $7, AX
	LEAQ (R8)(AX*1), R13
	VMOVUPD (SI), Y0
	MATVEC4(R13, 0, Y9)
	LEAQ (R9)(AX*1), R13
	VMOVUPD (DX), Y0
	MATVEC4(R13, 0, Y10)
	VMULPD Y10, Y9, Y11
	MOVL (R10), AX
	ADDL (R11), AX
	VCMPPD $1, Y15, Y11, Y12
	VMOVMSKPD Y12, R13
	CMPL R13, $15
	JNE iicstore
	VMULPD Y13, Y11, Y11
	INCL AX

iicstore:
	VMOVUPD Y11, (DI)
	MOVL AX, (R12)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $8, BX
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, R12
	DECQ CX
	JNZ iicloop
	MOVB $1, ok+88(FP)
	VZEROUPPER
	RET

iicbad:
	MOVB $0, ok+88(FP)
	VZEROUPPER
	RET

// SITESUM turns the four per-state terms in ylanes (xlow its low half)
// into one site value in X0: a serial lane sum from +0.0 (lanes 1-3
// read back from the 32-byte frame slot t, which keeps the shuffle
// port free), then max(tiny, sum) with the sum in the second-source
// slot so a NaN sum comes through, canonicalized to math.Max's NaN
// (X12). Uses X1; expects tiny in X15 and a $32 frame.
#define SITESUM(ylanes, xlow) \
	VMOVUPD ylanes, t-32(SP)       \
	VXORPD X0, X0, X0              \
	VADDSD xlow, X0, X0            \
	VADDSD t-24(SP), X0, X0        \
	VADDSD t-16(SP), X0, X0        \
	VADDSD t-8(SP), X0, X0         \
	VMAXSD X0, X15, X0             \
	VCMPSD $3, X0, X0, X1          \
	VBLENDVPD X1, X12, X0, X0

// func scanSiteCATAVX2(n int, site, xv, yv, sv *float64, cat *int, npc int, px, py, pe *[16]float64, freqs *[4]float64) (ok bool)
TEXT ·scanSiteCATAVX2(SB), NOSPLIT, $32-89
	MOVQ n+0(FP), CX
	MOVQ site+8(FP), DI
	MOVQ xv+16(FP), SI
	MOVQ yv+24(FP), DX
	MOVQ sv+32(FP), R8
	MOVQ cat+40(FP), BX
	MOVQ px+56(FP), R9
	MOVQ py+64(FP), R10
	MOVQ pe+72(FP), R11
	MOVQ freqs+80(FP), R12
	VMOVUPD (R12), Y14
	VMOVSD tiny<>(SB), X15
	VMOVSD canonNaN<>(SB), X12

scloop:
	MOVQ (BX), AX
	CMPQ AX, npc+48(FP)
	JAE scbad
	SHLQ $7, AX
	LEAQ (R9)(AX*1), R13
	VMOVUPD (SI), Y0
	MATVEC4(R13, 0, Y9)
	LEAQ (R10)(AX*1), R13
	VMOVUPD (DX), Y0
	MATVEC4(R13, 0, Y10)
	LEAQ (R11)(AX*1), R13
	VMOVUPD (R8), Y0
	MATVEC4(R13, 0, Y11)
	VMULPD Y9, Y14, Y9   // f·ax
	VMULPD Y10, Y9, Y9   // ·ay
	VMULPD Y11, Y9, Y9   // ·ac
	SITESUM(Y9, X9)
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	ADDQ $8, BX
	DECQ CX
	JNZ scloop
	MOVB $1, ok+88(FP)
	VZEROUPPER
	RET

scbad:
	MOVB $0, ok+88(FP)
	VZEROUPPER
	RET

// func evalSiteCATAVX2(n int, site, av, bv *float64, cat *int, npc int, pm *[16]float64, freqs *[4]float64) (ok bool)
TEXT ·evalSiteCATAVX2(SB), NOSPLIT, $32-65
	MOVQ n+0(FP), CX
	MOVQ site+8(FP), DI
	MOVQ av+16(FP), SI
	MOVQ bv+24(FP), DX
	MOVQ cat+32(FP), BX
	MOVQ npc+40(FP), R10
	MOVQ pm+48(FP), R8
	MOVQ freqs+56(FP), R9
	VMOVUPD (R9), Y14
	VMOVSD tiny<>(SB), X15
	VMOVSD canonNaN<>(SB), X12
	VXORPD Y13, Y13, Y13

evloop:
	MOVQ (BX), AX
	CMPQ AX, R10
	JAE evbad
	SHLQ $7, AX
	ADDQ R8, AX
	VMOVUPD (DX), Y0
	MATVEC4(AX, 0, Y9)         // row dots of P·b
	VMOVUPD (SI), Y10          // a
	VMULPD Y10, Y14, Y11       // f·a
	VMULPD Y9, Y11, Y11        // ·dot
	VCMPPD $0, Y13, Y10, Y10   // a == 0: the scalar skips the state
	VANDNPD Y11, Y10, Y11      // so its term is +0, a no-op in the sum
	SITESUM(Y11, X11)
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $8, BX
	DECQ CX
	JNZ evloop
	MOVB $1, ok+64(FP)
	VZEROUPPER
	RET

evbad:
	MOVB $0, ok+64(FP)
	VZEROUPPER
	RET

// ---- log4 --------------------------------------------------------------
//
// A 4-lane replica of math.Log's amd64 assembly (math/log_amd64.s): the
// same frexp by bit masking, the same f1 <= Sqrt2/2 adjustment (its
// CMPSD predicate 5, "not less than", taken with the operands as it
// orders them), the same polynomial in the same operation order, no
// FMA. Lanes that are not positive and finite are left unchanged and
// flagged in the returned mask for math.Log to finish.

#define LOGCONST(name, bits) \
	DATA name<>+0(SB)/8, bits  \
	DATA name<>+8(SB)/8, bits  \
	DATA name<>+16(SB)/8, bits \
	DATA name<>+24(SB)/8, bits \
	GLOBL name<>(SB), RODATA, $32

LOGCONST(lgMant, $0x000FFFFFFFFFFFFF)
LOGCONST(lgHalf, $0x3FE0000000000000)
LOGCONST(lgExpm, $0x4330000000000000)  // 2^52
LOGCONST(lgKbias, $0x43300000000003FE) // 2^52 + 1022
LOGCONST(lgHsqrt2, $0x3FE6A09E667F3BCD)
LOGCONST(lgOne, $0x3FF0000000000000)
LOGCONST(lgTwo, $0x4000000000000000)
LOGCONST(lgPosInf, $0x7FF0000000000000)
LOGCONST(lgL1, $0x3FE5555555555593)
LOGCONST(lgL2, $0x3FD999999997FA04)
LOGCONST(lgL3, $0x3FD2492494229359)
LOGCONST(lgL4, $0x3FCC71C51D8E78AF)
LOGCONST(lgL5, $0x3FC7466496CB03DE)
LOGCONST(lgL6, $0x3FC39A09D078C69F)
LOGCONST(lgL7, $0x3FC2F112DF3E5244)
LOGCONST(lgLn2Hi, $0x3FE62E42FEE00000)
LOGCONST(lgLn2Lo, $0x3DEA39EF35793C76)

// func logsAVX2(n int, x *float64) (bad uint64)
TEXT ·logsAVX2(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), DX
	MOVQ x+8(FP), DI
	XORQ BX, BX
	XORQ CX, CX
	VXORPD Y15, Y15, Y15
	VMOVUPD lgPosInf<>(SB), Y14

logloop:
	VMOVUPD (DI), Y0
	// positive and finite: 0 < bits < +Inf bits as int64
	VPCMPGTQ Y15, Y0, Y1
	VPCMPGTQ Y0, Y14, Y2
	VPAND Y2, Y1, Y13
	VMOVMSKPD Y13, AX
	XORQ $15, AX
	SHLQ CX, AX
	ORQ AX, BX

	// k = float64(exponent - 1022), exactly: (2^52 | e) - (2^52 + 1022)
	VPSRLQ $52, Y0, Y1
	VPOR lgExpm<>(SB), Y1, Y1
	VSUBPD lgKbias<>(SB), Y1, Y1
	// f1 = mantissa | 0.5
	VANDPD lgMant<>(SB), Y0, Y2
	VORPD lgHalf<>(SB), Y2, Y2
	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }
	VCMPPD $2, lgHsqrt2<>(SB), Y2, Y3
	VANDPD lgOne<>(SB), Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD lgOne<>(SB), Y3, Y3
	VMULPD Y3, Y2, Y2
	// f = f1 - 1; s = f / (2 + f); s2 = s*s; s4 = s2*s2
	VSUBPD lgOne<>(SB), Y2, Y2
	VADDPD lgTwo<>(SB), Y2, Y4
	VDIVPD Y4, Y2, Y4
	VMULPD Y4, Y4, Y5
	VMULPD Y5, Y5, Y6
	// t1 = s2 * (L1 + s4*(L3 + s4*(L5 + s4*L7)))
	VMULPD lgL7<>(SB), Y6, Y7
	VADDPD lgL5<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD lgL3<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD lgL1<>(SB), Y7, Y7
	VMULPD Y7, Y5, Y7
	// t2 = s4 * (L2 + s4*(L4 + s4*L6))
	VMULPD lgL6<>(SB), Y6, Y8
	VADDPD lgL4<>(SB), Y8, Y8
	VMULPD Y6, Y8, Y8
	VADDPD lgL2<>(SB), Y8, Y8
	VMULPD Y8, Y6, Y8
	// R = t1 + t2; hfsq = 0.5*f*f
	VADDPD Y8, Y7, Y7
	VMULPD lgHalf<>(SB), Y2, Y9
	VMULPD Y2, Y9, Y9
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y9, Y7, Y7
	VMULPD Y7, Y4, Y7
	VMULPD lgLn2Lo<>(SB), Y1, Y10
	VADDPD Y10, Y7, Y7
	VSUBPD Y7, Y9, Y9
	VSUBPD Y2, Y9, Y9
	VMULPD lgLn2Hi<>(SB), Y1, Y1
	VSUBPD Y9, Y1, Y1

	VBLENDVPD Y13, Y1, Y0, Y1 // flagged lanes keep their input
	VMOVUPD Y1, (DI)
	ADDQ $32, DI
	ADDQ $4, CX
	DECQ DX
	JNZ logloop
	MOVQ BX, bad+16(FP)
	VZEROUPPER
	RET
