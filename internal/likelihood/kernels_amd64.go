//go:build amd64 && !purego

package likelihood

import (
	"fmt"
	"math"
	"math/bits"

	"raxml/internal/msa"
)

// AVX2 kernel bindings. The assembly (kernels_amd64.s) implements every
// kernel-table entry — the nCat == 4 GAMMA newview shapes and makenewz
// core reduction, the CAT newview shapes and site kernels, and the
// 4-lane log — with the same IEEE operation sequence as the scalar
// reference (pairwise-associated dots, no FMA contraction), so the two
// paths produce bit-identical CLVs, scale counters, site values, logs
// and Newton partials; TestKernelEquivalence enforces that.
// Availability is probed once via CPUID/XGETBV: the OS must have
// enabled YMM state and the CPU must report AVX2.

var haveAVX2 = detectAVX2()

var avx2Kernels = kernelTable{
	name:       "avx2",
	newviewII4: newviewII4Asm,
	newviewTT4: newviewTT4Asm,
	newviewTI4: newviewTI4Asm,
	mkzCoreG4:  mkzCoreG4Asm,

	newviewTTCAT: newviewTTCATAsm,
	newviewTICAT: newviewTICATAsm,
	newviewIICAT: newviewIICATAsm,
	scanSiteCAT:  scanSiteCATAsm,
	evalSiteCAT:  evalSiteCATAsm,
	log4:         log4Asm,
}

func avx2Supported() bool { return haveAVX2 }

func avx2KernelTable() *kernelTable {
	if !haveAVX2 {
		return nil
	}
	return &avx2Kernels
}

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // OS saves/restores XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// newviewII4AVX2 combines n nCat==4 inner×inner GAMMA patterns: dst,
// lv, rv point at n contiguous 16-float lane blocks, pL and pR at four
// contiguous [16]float64 transition matrices each, and lsc/rsc/dsc at
// the n int32 scale counters.
//
//go:noescape
func newviewII4AVX2(n int, dst, lv, rv *float64, pL, pR *[16]float64, lsc, rsc, dsc *int32)

// newviewTT4AVX2 combines n nCat==4 tip×tip GAMMA patterns: each
// child's 256-float lookup table (16 codes × 16 lanes) is indexed by
// its per-pattern state code.
//
//go:noescape
func newviewTT4AVX2(n int, dst *float64, codesL, codesR *msa.State, lutL, lutR *float64, dsc *int32)

// newviewTI4AVX2 combines n nCat==4 tip×inner GAMMA patterns: the
// inner child's lane blocks at iv go through the four matrices at pm,
// the tip's lookup-table block is an elementwise factor.
//
//go:noescape
func newviewTI4AVX2(n int, dst *float64, codes *msa.State, lut, iv *float64, pm *[16]float64, isc, dsc *int32)

// mkzCoreG4AVX2 reduces the Newton d1/d2 partials of n patterns from
// their 16-float sumtable blocks at tbl, the n pattern weights at w,
// and the 48-float probability-folded factor block at pw.
//
//go:noescape
func mkzCoreG4AVX2(n int, tbl *float64, w *int, pw *float64) (d1, d2 float64)

func newviewII4Asm(dst, lv, rv []float64, pL, pR [][16]float64, lsc, rsc, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	// Hoist every bound the assembly relies on: 16 floats per pattern in
	// each lane buffer, 4 matrices per child, n counters per scale slice.
	_ = dst[n*16-1]
	_ = lv[n*16-1]
	_ = rv[n*16-1]
	_, _ = pL[3], pR[3]
	_, _ = lsc[n-1], rsc[n-1]
	newviewII4AVX2(n, &dst[0], &lv[0], &rv[0], &pL[0], &pR[0], &lsc[0], &rsc[0], &dsc[0])
}

func newviewTT4Asm(dst []float64, codesL, codesR []msa.State, lutL, lutR []float64, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	_ = dst[n*16-1]
	_, _ = codesL[n-1], codesR[n-1]
	_, _ = lutL[255], lutR[255] // 16 codes x 16 lanes per table
	newviewTT4AVX2(n, &dst[0], &codesL[0], &codesR[0], &lutL[0], &lutR[0], &dsc[0])
}

func newviewTI4Asm(dst []float64, codes []msa.State, lut, iv []float64, pm [][16]float64, isc, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	_ = dst[n*16-1]
	_ = iv[n*16-1]
	_ = codes[n-1]
	_ = lut[255]
	_ = pm[3]
	_ = isc[n-1]
	newviewTI4AVX2(n, &dst[0], &codes[0], &lut[0], &iv[0], &pm[0], &isc[0], &dsc[0])
}

func mkzCoreG4Asm(tbl []float64, w []int, pw *[48]float64) (d1, d2 float64) {
	n := len(w)
	if n == 0 {
		return 0, 0
	}
	_ = tbl[n*16-1]
	return mkzCoreG4AVX2(n, &tbl[0], &w[0], &pw[0])
}

// The CAT kernels address matrices and lookup-table blocks by each
// pattern's category and stop with ok = false at the first category
// outside [0, npc), before reading through it; badCats turns that into
// a panic naming the category.
func badCats(cat []int, npc int) {
	for _, c := range cat {
		if uint(c) >= uint(npc) {
			panic(fmt.Sprintf("likelihood: pattern category %d outside [0, %d)", c, npc))
		}
	}
	panic("likelihood: CAT kernel rejected its category block")
}

// newviewTTCATAVX2 combines n CAT tip×tip patterns: each child's
// lookup table holds 16 codes × npc categories × 4 lanes.
//
//go:noescape
func newviewTTCATAVX2(n int, dst *float64, codesL, codesR *msa.State, cat *int, npc int, lutL, lutR *float64, dsc *int32) (ok bool)

// newviewTICATAVX2 combines n CAT tip×inner patterns: the inner lane
// block through pm[cat[k]] times the tip's lookup-table block.
//
//go:noescape
func newviewTICATAVX2(n int, dst *float64, codes *msa.State, cat *int, npc int, lut, iv *float64, pm *[16]float64, isc, dsc *int32) (ok bool)

// newviewIICATAVX2 combines n CAT inner×inner patterns through
// pL[cat[k]] and pR[cat[k]].
//
//go:noescape
func newviewIICATAVX2(n int, dst, lv, rv *float64, cat *int, npc int, pL, pR *[16]float64, lsc, rsc, dsc *int32) (ok bool)

// scanSiteCATAVX2 writes the n clamped insertion-scan site values.
//
//go:noescape
func scanSiteCATAVX2(n int, site, xv, yv, sv *float64, cat *int, npc int, px, py, pe *[16]float64, freqs *[4]float64) (ok bool)

// evalSiteCATAVX2 writes the n clamped evaluate site values.
//
//go:noescape
func evalSiteCATAVX2(n int, site, av, bv *float64, cat *int, npc int, pm *[16]float64, freqs *[4]float64) (ok bool)

// logsAVX2 takes the logs of the 4·n values at x in place and returns
// the mask of lanes (bit i = x[i]) it left unchanged because they are
// not positive and finite. n is at most 16.
//
//go:noescape
func logsAVX2(n int, x *float64) (bad uint64)

func newviewTTCATAsm(dst []float64, codesL, codesR []msa.State, cat []int, lutL, lutR []float64, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	npc := min(len(lutL), len(lutR)) / 64
	_ = dst[n*4-1]
	_, _ = codesL[n-1], codesR[n-1]
	cat = cat[:n]
	if !newviewTTCATAVX2(n, &dst[0], &codesL[0], &codesR[0], &cat[0], npc, &lutL[0], &lutR[0], &dsc[0]) {
		badCats(cat, npc)
	}
}

func newviewTICATAsm(dst []float64, codes []msa.State, cat []int, lut, iv []float64, pm [][16]float64, isc, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	npc := min(len(lut)/64, len(pm))
	_ = dst[n*4-1]
	_ = iv[n*4-1]
	_ = codes[n-1]
	_ = isc[n-1]
	cat = cat[:n]
	if !newviewTICATAVX2(n, &dst[0], &codes[0], &cat[0], npc, &lut[0], &iv[0], &pm[0], &isc[0], &dsc[0]) {
		badCats(cat, npc)
	}
}

func newviewIICATAsm(dst, lv, rv []float64, cat []int, pL, pR [][16]float64, lsc, rsc, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	npc := min(len(pL), len(pR))
	_ = dst[n*4-1]
	_ = lv[n*4-1]
	_ = rv[n*4-1]
	_, _ = lsc[n-1], rsc[n-1]
	cat = cat[:n]
	if !newviewIICATAVX2(n, &dst[0], &lv[0], &rv[0], &cat[0], npc, &pL[0], &pR[0], &lsc[0], &rsc[0], &dsc[0]) {
		badCats(cat, npc)
	}
}

func scanSiteCATAsm(site, xv, yv, sv []float64, cat []int, px, py, pe [][16]float64, freqs *[4]float64) {
	n := len(site)
	if n == 0 {
		return
	}
	npc := min(len(px), len(py), len(pe))
	_, _, _ = xv[n*4-1], yv[n*4-1], sv[n*4-1]
	cat = cat[:n]
	if !scanSiteCATAVX2(n, &site[0], &xv[0], &yv[0], &sv[0], &cat[0], npc, &px[0], &py[0], &pe[0], freqs) {
		badCats(cat, npc)
	}
}

func evalSiteCATAsm(site, av, bv []float64, cat []int, pm [][16]float64, freqs *[4]float64) {
	n := len(site)
	if n == 0 {
		return
	}
	_, _ = av[n*4-1], bv[n*4-1]
	cat = cat[:n]
	if !evalSiteCATAVX2(n, &site[0], &av[0], &bv[0], &cat[0], len(pm), &pm[0], freqs) {
		badCats(cat, len(pm))
	}
}

// log4Asm takes the logs of v in place: whole groups of four lanes in
// the assembly, 64 lanes per call, and a tail of one to three lanes
// padded to a group on the stack. Flagged lanes (zero, negative,
// infinite, NaN) go through math.Log.
func log4Asm(v []float64) {
	for len(v) >= 4 {
		g := min(len(v)/4, 16)
		fixLogs(v, logsAVX2(g, &v[0]))
		v = v[4*g:]
	}
	if len(v) > 0 {
		t := [4]float64{1, 1, 1, 1}
		copy(t[:], v)
		fixLogs(t[:], logsAVX2(1, &t[0]))
		copy(v, t[:])
	}
}

func fixLogs(v []float64, bad uint64) {
	for bad != 0 {
		i := bits.TrailingZeros64(bad)
		v[i] = math.Log(v[i])
		bad &= bad - 1
	}
}
