package likelihood

import (
	"math"

	"raxml/internal/threads"
)

// This file implements the evaluation primitive behind RAxML's *lazy
// SPR* scan. After a subtree is pruned (kept dangling on its attachment
// node), the directed CLVs of the remaining tree and of the subtree are
// both unchanged while candidate insertion edges are tried. Scoring one
// insertion therefore needs no newview at all: it is a single three-way
// join of cached CLVs at the would-be junction — an O(patterns) kernel.
// This is what makes SPR scans affordable and is precisely the loop the
// paper's fine-grained threads accelerate during search stages. Each
// scored insertion is one JobInsertScan post: any stale CLVs ride along
// in the job's traversal descriptor, so even the first scan after a
// prune costs a single barrier crossing.

// EvaluateInsertion estimates the log-likelihood of inserting the
// dangling subtree (rooted at subRoot, hanging from attachment node
// attach) into edge (x, y). The insertion edge is split in half; the
// pendant branch keeps its current length. The tree must currently hold
// the subtree dangling: edge (subRoot, attach) intact, attach otherwise
// disconnected, and (x, y) an edge of the main component.
func (e *Engine) EvaluateInsertion(subRoot, attach, x, y int) float64 {
	e.ensureArena()
	slotSub := e.slotOf(subRoot, attach)
	slotXY := e.slotOf(x, y)
	slotYX := e.slotOf(y, x)
	e.beginTraversal()
	e.queueTraversal(subRoot, slotSub)
	e.queueTraversal(x, slotXY)
	e.queueTraversal(y, slotYX)
	e.prepareTraversal()

	txy := e.tree.EdgeLength(x, y)
	pendant := e.tree.EdgeLength(subRoot, attach)
	e.ensureP()
	e.fillP(txy/2, e.pLeft)   // toward x
	e.fillP(txy/2, e.pRight)  // toward y
	e.fillP(pendant, e.pEval) // toward the subtree

	e.jobVX = e.viewOf(x, slotXY)
	e.jobVY = e.viewOf(y, slotYX)
	e.jobVS = e.viewOf(subRoot, slotSub)
	e.jobWire[0] = e.wireViewOf(x, slotXY)
	e.jobWire[1] = e.wireViewOf(y, slotYX)
	e.jobWire[2] = e.wireViewOf(subRoot, slotSub)
	e.jobNViews = 3
	e.jobT, e.jobT2 = txy, pendant
	e.dispatch(threads.JobInsertScan)
	return e.pool.SumSlots(0)
}

// insertScanRange computes one worker's partial of the three-way CLV
// join at a candidate insertion point, over the views jobVX/jobVY/jobVS
// with per-partition transition matrices pLeft (toward x), pRight
// (toward y) and pEval (toward the subtree). Site values are staged
// logBatch patterns at a time in the worker's scratch row and their
// logs taken in one log4 call; the sum stays the serial per-pattern
// reduction.
func (e *Engine) insertScanRange(w int, r threads.Range) float64 {
	site := e.siteScratch(w)
	sx, sy, ss := e.jobVX.scale, e.jobVY.scale, e.jobVS.scale
	sum := 0.0
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, r)
		if !ok {
			continue
		}
		c := 0.0
		for b := lo; b < hi; b += logBatch {
			s := site[:min(logBatch, hi-b)]
			e.insertionSites(s, ps, b)
			e.kern.log4(s)
			c = e.sumSiteLogs(c, s, ps, b, sx, sy, ss)
		}
		sum += c
	}
	return sum
}

// insertionSites writes the clamped insertion-scan site likelihood of
// patterns [lo, lo+len(site)) of partition ps. CAT goes through the
// kernel table; GAMMA mixes its categories by probability here and
// writes 1 (log 0) for zero-weight patterns, which the reduction skips.
func (e *Engine) insertionSites(site []float64, ps *partState, lo int) {
	vx, vy, vs := &e.jobVX, &e.jobVY, &e.jobVS
	hi := lo + len(site)
	pLeft := e.pLeft[ps.pOff:]
	pRight := e.pRight[ps.pOff:]
	pEval := e.pEval[ps.pOff:]
	if e.isCAT {
		npc := ps.rates.NumCats()
		e.kern.scanSiteCAT(site, catView(vx, ps, lo, hi), catView(vy, ps, lo, hi), catView(vs, ps, lo, hi),
			ps.rates.PatternCategory[lo-ps.lo:hi-ps.lo], pLeft[:npc], pRight[:npc], pEval[:npc], &ps.model.Freqs)
		return
	}
	nCat := e.nCat
	freqs := ps.model.Freqs
	probs := ps.rates.Probs
	x0, xStep, xCat := viewCoeffs(vx, ps)
	y0, yStep, yCat := viewCoeffs(vy, ps)
	s0, sStep, sCat := viewCoeffs(vs, ps)
	for i := range site {
		k := lo + i
		if e.weights[k] == 0 {
			site[i] = 1
			continue
		}
		var sv float64
		for cat := 0; cat < nCat; cat++ {
			xv := (*[4]float64)(vx.vec[x0+k*xStep+cat*xCat:])
			yv := (*[4]float64)(vy.vec[y0+k*yStep+cat*yCat:])
			sb4 := (*[4]float64)(vs.vec[s0+k*sStep+cat*sCat:])
			x1, x2, x3, x4 := xv[0], xv[1], xv[2], xv[3]
			y1, y2, y3, y4 := yv[0], yv[1], yv[2], yv[3]
			s1, s2, s3, s4 := sb4[0], sb4[1], sb4[2], sb4[3]
			px, py, pe := &pLeft[cat], &pRight[cat], &pEval[cat]
			catL := 0.0
			for s := 0; s < 4; s++ {
				sb := s * 4
				ax := (px[sb]*x1 + px[sb+1]*x2) + (px[sb+2]*x3 + px[sb+3]*x4)
				ay := (py[sb]*y1 + py[sb+1]*y2) + (py[sb+2]*y3 + py[sb+3]*y4)
				ac := (pe[sb]*s1 + pe[sb+1]*s2) + (pe[sb+2]*s3 + pe[sb+3]*s4)
				catL += freqs[s] * ax * ay * ac
			}
			sv += probs[cat] * catL
		}
		site[i] = math.Max(sv, math.SmallestNonzeroFloat64)
	}
}

// scanSiteCATScalar is the scalar reference of the CAT insertion-scan
// site kernel: per pattern, three 4×4 mat-vecs (x, y and the subtree
// through the pattern's category matrices), the frequency-weighted
// product ((f·ax)·ay)·ac summed serially over the four states,
// clamped at math.SmallestNonzeroFloat64.
func scanSiteCATScalar(site, xv, yv, sv []float64, cat []int, px, py, pe [][16]float64, freqs *[4]float64) {
	for k := range site {
		pc := cat[k]
		xb := (*[4]float64)(xv[k*4:])
		yb := (*[4]float64)(yv[k*4:])
		sb4 := (*[4]float64)(sv[k*4:])
		x1, x2, x3, x4 := xb[0], xb[1], xb[2], xb[3]
		y1, y2, y3, y4 := yb[0], yb[1], yb[2], yb[3]
		s1, s2, s3, s4 := sb4[0], sb4[1], sb4[2], sb4[3]
		a, b, c := &px[pc], &py[pc], &pe[pc]
		catL := 0.0
		for s := 0; s < 4; s++ {
			sb := s * 4
			ax := (a[sb]*x1 + a[sb+1]*x2) + (a[sb+2]*x3 + a[sb+3]*x4)
			ay := (b[sb]*y1 + b[sb+1]*y2) + (b[sb+2]*y3 + b[sb+3]*y4)
			ac := (c[sb]*s1 + c[sb+1]*s2) + (c[sb+2]*s3 + c[sb+3]*s4)
			catL += freqs[s] * ax * ay * ac
		}
		site[k] = math.Max(catL, math.SmallestNonzeroFloat64)
	}
}
