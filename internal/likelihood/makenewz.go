package likelihood

import (
	"math"

	"raxml/internal/threads"
)

// This file implements the eigen-basis branch-length kernels: the
// reproduction of RAxML's makenewzIterative/execCore split, replacing
// the naive per-iteration scheme (three derivative matrices per
// partition×category filled serially on the master, three 4×4 matrix
// products per site in the workers) with two phases:
//
//	Phase 1 — JobMakenewzSetup, once per branch. Workers project their
//	pattern stripe of the two endpoint CLVs into the model eigenbasis
//	and store the per-(site, category) 4-entry products
//
//	    sumtable[k] = (Σ_s π_s·a_s·evec[s][k]) · (Σ_j inv[k][j]·b_j)
//
//	in the engine's persistent sumtable arena (one tile-shaped buffer,
//	reused across branches; see docs/memory-layout.md). The sumtable is
//	branch-length independent: it encodes everything about the two
//	subtrees that the Newton iteration needs.
//
//	Phase 2 — JobMakenewzCore, once per Newton iteration. The master
//	computes, per (partition, category), just the 4 eigen exponentials
//	exp(λ_k·r_c·t) and their λ-weighted first/second-derivative forms
//	(gtr.Model.ExpEigen) — 12 scalars per category, no matrix fills —
//	and workers reduce d1/d2 partials from 4-term dot products against
//	their sumtable stripes:
//
//	    catL  = Σ_k exp(λ_k·r_c·t)          · sumtable[k]
//	    catD1 = Σ_k λ_k·r_c·exp(λ_k·r_c·t)  · sumtable[k]
//	    catD2 = Σ_k (λ_k·r_c)²·exp(...)     · sumtable[k]
//
// Rescaling needs no pass of its own: a pattern's CLV scaling
// multiplies siteL, siteD1 and siteD2 by the same power of the scale
// factor, which cancels in the Newton quantities d1 = siteD1/siteL and
// siteD2/siteL − (siteD1/siteL)² — exactly as the legacy JobMakenewz
// kernel already exploited by never reading the scale counters.
//
// Per-site iteration work drops from three 16-FMA matrix products per
// category to one 4-FMA dot product per derivative order, and the
// serial master-side PDeriv fill disappears entirely; the distributed
// dispatcher ships ~12·Σcats float64 per iteration instead of
// rebuilding three matrices per category on every rank
// (docs/hybrid-topology.md documents the wire payloads). The legacy
// full-matrix kernel (kernels.go: branchDerivatives/derivativesChunk)
// is retained behind SetLegacyMakenewz as the golden reference.

// ensureSumtable sizes the persistent sumtable arena: one tile's worth
// of float64 (the same padded per-partition segments as a CLV tile), so
// the offset formula of docs/memory-layout.md applies with the tile
// base at 0. Allocated on first use, reused for every later branch.
func (e *Engine) ensureSumtable() {
	if cap(e.sumtable) < e.tileFloats {
		e.sumtable = make([]float64, e.tileFloats)
	}
	e.sumtable = e.sumtable[:e.tileFloats]
}

// makenewzSetup posts ONE JobMakenewzSetup over the fresh endpoint
// views (a, slotA) and (b, slotB): workers fill their stripes of the
// sumtable arena. Callers must have refreshed the views (refreshViews).
func (e *Engine) makenewzSetup(a, slotA, b, slotB int, t float64) {
	e.ensureSumtable()
	e.setEdgeJob(a, slotA, b, slotB, t)
	e.beginTraversal() // views are fresh: empty descriptor
	e.dispatch(threads.JobMakenewzSetup)
}

// ensureFactorScratch sizes the three factor buffers to the current
// category total — the single resize path shared by the master fill
// (makenewzFactors) and the worker-side wire install (applyWireFactors).
func (e *Engine) ensureFactorScratch() {
	need := e.totalCats * 4
	if cap(e.mkzExp) < need {
		e.mkzExp = make([]float64, need)
		e.mkzD1 = make([]float64, need)
		e.mkzD2 = make([]float64, need)
	}
	e.mkzExp = e.mkzExp[:need]
	e.mkzD1 = e.mkzD1[:need]
	e.mkzD2 = e.mkzD2[:need]
}

// makenewzFactors fills mkzExp/mkzD1/mkzD2 with every partition's
// per-category eigen exponential factors at branch length t — the whole
// master-side per-iteration cost of the sumtable scheme.
func (e *Engine) makenewzFactors(t float64) {
	e.ensureFactorScratch()
	for i := range e.parts {
		ps := &e.parts[i]
		for c := 0; c < ps.rates.NumCats(); c++ {
			o := (ps.pOff + c) * 4
			ps.model.ExpEigen(t, ps.rates.Rates[c],
				(*[4]float64)(e.mkzExp[o:o+4]),
				(*[4]float64)(e.mkzD1[o:o+4]),
				(*[4]float64)(e.mkzD2[o:o+4]))
		}
	}
}

// makenewzCore posts ONE JobMakenewzCore evaluating the derivatives at
// branch length t against the sumtable filled by makenewzSetup, and
// returns the reduced d(lnL)/dt and d²(lnL)/dt². Exactly one barrier
// crossing per call — the per-iteration dispatch count of the legacy
// kernel, with ~10× less per-site work behind it.
func (e *Engine) makenewzCore(t float64) (d1, d2 float64) {
	e.makenewzFactors(t)
	e.jobT, e.jobT2 = t, 0
	e.jobNViews = 0 // workers need only the factors and their sumtable
	e.beginTraversal()
	e.dispatch(threads.JobMakenewzCore)
	return e.pool.SumSlots2(0, 1)
}

// makenewzSetupRange fills one worker's stripe of the sumtable arena
// from the endpoint views in jobVA/jobVB, one partition chunk at a
// time (the eigenbasis differs per partition).
func (e *Engine) makenewzSetupRange(r threads.Range) {
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, r)
		if ok {
			e.makenewzSetupChunk(ps, lo, hi)
		}
	}
}

func (e *Engine) makenewzSetupChunk(ps *partState, lo, hi int) {
	va := e.jobVA
	vb := e.jobVB
	left, right := ps.model.SumtableBasis()
	st := e.nCat * 4
	l0, l1 := lo-ps.lo, hi-ps.lo // segment-local pattern window
	base := ps.fOff
	aOff, aStep, aCat := viewCoeffs(&va, ps)
	bOff, bStep, bCat := viewCoeffs(&vb, ps)
	// Tip vectors are indexed by global pattern, CLV tiles by the
	// segment-relative offset viewCoeffs folds into aOff/bOff.
	e.kern.mkzSetup(e.sumtable[base+l0*st:base+l1*st:base+l1*st],
		va.vec[aOff+lo*aStep:], vb.vec[bOff+lo*bStep:],
		e.nCat, aStep, aCat, bStep, bCat, &left, &right)
}

// makenewzCoreRange reduces one worker's d1/d2 partials from its
// sumtable stripe and the shipped exponential factors.
func (e *Engine) makenewzCoreRange(r threads.Range) (d1, d2 float64) {
	var s1, s2 float64
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, r)
		if ok {
			c1, c2 := e.makenewzCoreChunk(ps, lo, hi)
			s1 += c1
			s2 += c2
		}
	}
	return s1, s2
}

func (e *Engine) makenewzCoreChunk(ps *partState, lo, hi int) (d1, d2 float64) {
	nCat := e.nCat
	st := nCat * 4
	l0, l1 := lo-ps.lo, hi-ps.lo
	base := ps.fOff
	tbl := e.sumtable[base+l0*st : base+l1*st : base+l1*st]
	w := e.weights[lo:hi]
	eb := ps.pOff * 4
	npc := ps.rates.NumCats()
	wE := e.mkzExp[eb : eb+npc*4 : eb+npc*4]
	w1 := e.mkzD1[eb : eb+npc*4 : eb+npc*4]
	w2 := e.mkzD2[eb : eb+npc*4 : eb+npc*4]

	if e.isCAT {
		return e.kern.mkzCoreCAT(tbl, w, ps.rates.PatternCategory[l0:l1], wE, w1, w2)
	}

	probs := ps.rates.Probs
	if nCat == 4 {
		// Fold the category probabilities into the factor block once per
		// chunk, then hand the branch-light 16-wide reduction to the
		// bound kernel (scalar reference or AVX2 asm).
		var pw [48]float64
		for c := 0; c < 4; c++ {
			pr := probs[c]
			for j := 0; j < 4; j++ {
				pw[c*4+j] = pr * wE[c*4+j]
				pw[16+c*4+j] = pr * w1[c*4+j]
				pw[32+c*4+j] = pr * w2[c*4+j]
			}
		}
		return e.kern.mkzCoreG4(tbl, w, &pw)
	}

	var s1, s2 float64
	for k := 0; k < len(w); k++ {
		wk := w[k]
		if wk == 0 {
			continue
		}
		o := k * st
		var siteL, siteD1, siteD2 float64
		for cat := 0; cat < nCat; cat++ {
			t := (*[4]float64)(tbl[o+cat*4:])
			t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
			c := cat * 4
			pr := probs[cat]
			siteL += pr * ((wE[c]*t0 + wE[c+1]*t1) + (wE[c+2]*t2 + wE[c+3]*t3))
			siteD1 += pr * ((w1[c]*t0 + w1[c+1]*t1) + (w1[c+2]*t2 + w1[c+3]*t3))
			siteD2 += pr * ((w2[c]*t0 + w2[c+1]*t1) + (w2[c+2]*t2 + w2[c+3]*t3))
		}
		if siteL < math.SmallestNonzeroFloat64 {
			continue
		}
		inv := 1 / siteL
		ratio := siteD1 * inv
		s1 += float64(wk) * ratio
		s2 += float64(wk) * (siteD2*inv - ratio*ratio)
	}
	return s1, s2
}

// SetLegacyMakenewz routes OptimizeBranch through the full-matrix
// JobMakenewz kernel (per-iteration PDeriv fills + matrix products) —
// the pre-sumtable behaviour, kept as the golden reference and the
// ablation measuring what the eigen-basis scheme buys. Production code
// never enables it.
func (e *Engine) SetLegacyMakenewz(enabled bool) { e.legacyMakenewz = enabled }

// LastNewtonIterations returns the number of Newton iterations (core
// dispatches) of the most recent OptimizeBranch call — exposed so
// dispatch-accounting tests can assert "one barrier crossing per
// iteration plus one setup" without instrumenting the loop.
func (e *Engine) LastNewtonIterations() int { return e.lastNewtonIters }
