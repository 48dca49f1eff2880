package likelihood

import (
	"fmt"
	"math"

	"raxml/internal/msa"
)

// Kernel dispatch. The hot inner loops of both rate models — the
// nCat == 4 GAMMA newview shapes and makenewz core reduction, the CAT
// newview shapes and makenewz core, the makenewz setup projection of
// both, the insertion-scan and evaluate site kernels of CAT, and the
// batched site-log — are reached through a per-engine kernel
// table bound at construction, so an AVX2 assembly implementation
// (kernels_amd64.s, amd64 && !purego builds) can replace the scalar
// reference without a branch inside the pattern loop. The scalar
// functions are the pinned reference: the asm performs the same
// IEEE operations in the same order and the equivalence tests hold the
// two bit-identical. docs/kernels.md describes the table and the
// selection rules.

// KernelMode selects which kernel implementations newly constructed
// engines bind: the platform's best available set (auto), the portable
// scalar reference, or the AVX2 assembly path.
type KernelMode int

const (
	KernelAuto KernelMode = iota
	KernelScalar
	KernelAVX2
)

// kernelTable is one bound implementation set.
//
// GAMMA (nCat == 4): newviewII4 combines n inner×inner patterns
// (dst/lv/rv are n·16-float lane blocks, pL/pR four flat matrices per
// child, lsc/rsc/dsc the n scale counters); newviewTT4 combines two tips
// through their 256-float (16 codes × 16 lanes) lookup tables;
// newviewTI4 combines a tip's table block with an inner child pushed
// through the four matrices pm; mkzCoreG4 reduces the Newton d1/d2
// partials of n patterns from their 16-entry sumtable blocks and the
// probability-folded exponential factor block pw (pw[0:16] = Σ-weights
// for L, [16:32] for d1, [32:48] for d2).
//
// CAT (one rate category per pattern): every pattern is one 4-float
// lane block and cat[k] selects its matrix among the partition's
// category matrices (its lookup-table block among the 64-float
// per-category blocks of each of the 16 codes). newviewTTCAT,
// newviewTICAT and newviewIICAT are the three newview shapes;
// scanSiteCAT writes the insertion-scan site value of each pattern
// (the three-way join at the would-be junction), evalSiteCAT the
// evaluate/site-lnL site value across one edge. Both clamp the site
// at math.SmallestNonzeroFloat64 with math.Max.
//
// Makenewz (both rate models): mkzSetup projects the two endpoint
// views of a branch into the model eigenbasis, one 4-entry sumtable
// block per (pattern, category) — dst[(k·nCat+c)·4+kk] is
// (Σ_s left[s·4+kk]·a_s)·(Σ_j right[kk·4+j]·b_j) with a the lane block
// at av[k·aStep+c·aCat:] and b likewise (tips pass a category step of
// 0: one block serves every category). mkzCoreCAT reduces the CAT
// Newton d1/d2 partials of the patterns in w from their sumtable
// blocks and the per-category factor blocks fE, f1, f2 (4 floats per
// category, selected by cat[k]).
//
// log4 replaces every element of v by its natural log, bit for bit
// math.Log, four lanes at a time where the platform has them.
type kernelTable struct {
	name       string
	newviewII4 func(dst, lv, rv []float64, pL, pR [][16]float64, lsc, rsc, dsc []int32)
	newviewTT4 func(dst []float64, codesL, codesR []msa.State, lutL, lutR []float64, dsc []int32)
	newviewTI4 func(dst []float64, codes []msa.State, lut, iv []float64, pm [][16]float64, isc, dsc []int32)
	mkzCoreG4  func(tbl []float64, w []int, pw *[48]float64) (d1, d2 float64)
	mkzSetup   func(dst, av, bv []float64, nCat, aStep, aCat, bStep, bCat int, left, right *[16]float64)
	mkzCoreCAT func(tbl []float64, w, cat []int, fE, f1, f2 []float64) (d1, d2 float64)

	newviewTTCAT func(dst []float64, codesL, codesR []msa.State, cat []int, lutL, lutR []float64, dsc []int32)
	newviewTICAT func(dst []float64, codes []msa.State, cat []int, lut, iv []float64, pm [][16]float64, isc, dsc []int32)
	newviewIICAT func(dst, lv, rv []float64, cat []int, pL, pR [][16]float64, lsc, rsc, dsc []int32)
	scanSiteCAT  func(site, xv, yv, sv []float64, cat []int, px, py, pe [][16]float64, freqs *[4]float64)
	evalSiteCAT  func(site, av, bv []float64, cat []int, pm [][16]float64, freqs *[4]float64)
	log4         func(v []float64)
}

var scalarKernels = kernelTable{
	name:       "scalar",
	newviewII4: newviewII4Scalar,
	newviewTT4: newviewTT4Scalar,
	newviewTI4: newviewTI4Scalar,
	mkzCoreG4:  mkzCoreG4Scalar,
	mkzSetup:   mkzSetupScalar,
	mkzCoreCAT: mkzCoreCATScalar,

	newviewTTCAT: newviewTTCATScalar,
	newviewTICAT: newviewTICATScalar,
	newviewIICAT: newviewIICATScalar,
	scanSiteCAT:  scanSiteCATScalar,
	evalSiteCAT:  evalSiteCATScalar,
	log4:         log4Scalar,
}

// kernelMode is the process-wide selection applied to engines built
// after SetKernelMode; engines capture their table at construction.
var kernelMode = KernelAuto

// SetKernelMode installs the process-wide kernel selection from its CLI
// spelling ("auto", "scalar", "avx2"). Selecting avx2 on hardware (or a
// build) without it is an error; auto silently falls back to scalar.
func SetKernelMode(mode string) error {
	switch mode {
	case "", "auto":
		kernelMode = KernelAuto
	case "scalar":
		kernelMode = KernelScalar
	case "avx2":
		if !avx2Supported() {
			return fmt.Errorf("likelihood: avx2 kernels unavailable (not an amd64 AVX2 machine, or a purego build)")
		}
		kernelMode = KernelAVX2
	default:
		return fmt.Errorf("likelihood: unknown kernel mode %q (want auto, scalar or avx2)", mode)
	}
	return nil
}

// ActiveKernelName reports which kernel set an engine constructed now
// would bind — the resolved form of the current mode.
func ActiveKernelName() string { return activeKernelTable().name }

// KernelName reports the kernel set this engine bound at construction.
func (e *Engine) KernelName() string { return e.kern.name }

func activeKernelTable() *kernelTable {
	switch kernelMode {
	case KernelScalar:
		return &scalarKernels
	case KernelAVX2:
		if t := avx2KernelTable(); t != nil {
			return t
		}
		return &scalarKernels
	default:
		if avx2Supported() {
			if t := avx2KernelTable(); t != nil {
				return t
			}
		}
		return &scalarKernels
	}
}

// mkzCoreG4Scalar is the scalar reference of the nCat == 4 GAMMA
// makenewz core loop: per pattern, three 16-term dots against the
// sumtable block and one division feeding the Newton quantities. The
// dots are written out inline (the 16-mul expansion is over the
// compiler's inline budget) as four pairwise category sums combined by
// a pairwise tree — the VHADDPD reduction of the AVX2 path, lane for
// lane, so the two implementations are bit-identical.
func mkzCoreG4Scalar(tbl []float64, w []int, pw *[48]float64) (d1, d2 float64) {
	fE := (*[16]float64)(pw[0:])
	f1 := (*[16]float64)(pw[16:])
	f2 := (*[16]float64)(pw[32:])
	var s1, s2 float64
	for k := 0; k < len(w); k++ {
		wk := w[k]
		if wk == 0 {
			continue
		}
		t := (*[16]float64)(tbl[k*16:])
		t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
		t4, t5, t6, t7 := t[4], t[5], t[6], t[7]
		t8, t9, ta, tb := t[8], t[9], t[10], t[11]
		tc, td, te, tf := t[12], t[13], t[14], t[15]
		siteL := (((fE[0]*t0 + fE[1]*t1) + (fE[2]*t2 + fE[3]*t3)) +
			((fE[4]*t4 + fE[5]*t5) + (fE[6]*t6 + fE[7]*t7))) +
			(((fE[8]*t8 + fE[9]*t9) + (fE[10]*ta + fE[11]*tb)) +
				((fE[12]*tc + fE[13]*td) + (fE[14]*te + fE[15]*tf)))
		if siteL < math.SmallestNonzeroFloat64 {
			continue
		}
		siteD1 := (((f1[0]*t0 + f1[1]*t1) + (f1[2]*t2 + f1[3]*t3)) +
			((f1[4]*t4 + f1[5]*t5) + (f1[6]*t6 + f1[7]*t7))) +
			(((f1[8]*t8 + f1[9]*t9) + (f1[10]*ta + f1[11]*tb)) +
				((f1[12]*tc + f1[13]*td) + (f1[14]*te + f1[15]*tf)))
		siteD2 := (((f2[0]*t0 + f2[1]*t1) + (f2[2]*t2 + f2[3]*t3)) +
			((f2[4]*t4 + f2[5]*t5) + (f2[6]*t6 + f2[7]*t7))) +
			(((f2[8]*t8 + f2[9]*t9) + (f2[10]*ta + f2[11]*tb)) +
				((f2[12]*tc + f2[13]*td) + (f2[14]*te + f2[15]*tf)))
		inv := 1 / siteL
		ratio := siteD1 * inv
		s1 += float64(wk) * ratio
		s2 += float64(wk) * (siteD2*inv - ratio*ratio)
	}
	return s1, s2
}

// mkzSetupScalar is the scalar reference of the makenewz setup
// projection of both rate models: per (pattern, category), both lane
// blocks through the eigenbasis (each 4-term sum pairwise) and the
// product of the two projections. Every pattern is projected
// unconditionally — the weight-zero skip lives in the core kernel,
// which never reads those entries; a branch-free setup loop is cheaper
// than the per-pattern test.
func mkzSetupScalar(dst, av, bv []float64, nCat, aStep, aCat, bStep, bCat int, left, right *[16]float64) {
	st := nCat * 4
	n := len(dst) / st
	for k := 0; k < n; k++ {
		for cat := 0; cat < nCat; cat++ {
			ab := (*[4]float64)(av[k*aStep+cat*aCat:])
			bb := (*[4]float64)(bv[k*bStep+cat*bCat:])
			a0, a1, a2, a3 := ab[0], ab[1], ab[2], ab[3]
			b0, b1, b2, b3 := bb[0], bb[1], bb[2], bb[3]
			d := (*[4]float64)(dst[k*st+cat*4:])
			for kk := 0; kk < 4; kk++ {
				lz := (left[0*4+kk]*a0 + left[1*4+kk]*a1) + (left[2*4+kk]*a2 + left[3*4+kk]*a3)
				rz := (right[kk*4+0]*b0 + right[kk*4+1]*b1) + (right[kk*4+2]*b2 + right[kk*4+3]*b3)
				d[kk] = lz * rz
			}
		}
	}
}

// mkzCoreCATScalar is the scalar reference of the CAT makenewz core
// loop: per live pattern, three 4-term dots of its sumtable block
// against its category's factor blocks, one division, and the Newton
// quantities accumulated in pattern order. Zero-weight patterns and
// sites below math.SmallestNonzeroFloat64 are skipped (a NaN site is
// not).
func mkzCoreCATScalar(tbl []float64, w, cat []int, fE, f1, f2 []float64) (d1, d2 float64) {
	var s1, s2 float64
	for k := 0; k < len(w); k++ {
		wk := w[k]
		if wk == 0 {
			continue
		}
		t := (*[4]float64)(tbl[k*4:])
		t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
		c := cat[k] * 4
		siteL := (fE[c]*t0 + fE[c+1]*t1) + (fE[c+2]*t2 + fE[c+3]*t3)
		if siteL < math.SmallestNonzeroFloat64 {
			continue
		}
		siteD1 := (f1[c]*t0 + f1[c+1]*t1) + (f1[c+2]*t2 + f1[c+3]*t3)
		siteD2 := (f2[c]*t0 + f2[c+1]*t1) + (f2[c+2]*t2 + f2[c+3]*t3)
		inv := 1 / siteL
		ratio := siteD1 * inv
		s1 += float64(wk) * ratio
		s2 += float64(wk) * (siteD2*inv - ratio*ratio)
	}
	return s1, s2
}

// log4Scalar is the reference of the batched site log: math.Log, one
// lane at a time.
func log4Scalar(v []float64) {
	for i, x := range v {
		v[i] = math.Log(x)
	}
}
