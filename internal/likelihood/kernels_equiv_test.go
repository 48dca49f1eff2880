package likelihood

import (
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// accelTables returns the non-scalar kernel tables this build and CPU
// provide.
func accelTables(t *testing.T) []*kernelTable {
	if avx2Supported() {
		return []*kernelTable{avx2KernelTable()}
	}
	t.Log("no accelerated kernel table on this platform/build; scalar reference runs unchallenged")
	return nil
}

// sameBits fails unless ref and got are the same float64, bit for bit
// (NaN payloads and the sign of zero included).
func sameBits(t *testing.T, name string, trial int, what string, idx int, ref, got float64) {
	t.Helper()
	if math.Float64bits(ref) != math.Float64bits(got) {
		t.Fatalf("trial %d: %s[%d]: scalar %g (%#016x) vs %s %g (%#016x)",
			trial, what, idx, ref, math.Float64bits(ref), name, got, math.Float64bits(got))
	}
}

func sameScales(t *testing.T, name string, trial int, ref, got []int32) {
	t.Helper()
	for k := range ref {
		if ref[k] != got[k] {
			t.Fatalf("trial %d: pattern %d scale count: scalar %d vs %s %d", trial, k, ref[k], name, got[k])
		}
	}
}

// magnitudes spreads CLV-like inputs across the dynamic range the
// engine actually visits, weighted toward the interesting edges: a lane
// product of two ~1e-129 values or one matrix-propagated ~1e-258 value
// lands within a few decades of scaleThreshold (1e-256), exercising
// both sides of the rescale branch.
var magnitudes = []float64{1.0, 1e-3, 1e-60, 1e-129, 1e-140, 1e-250, 1e-258, 1e-300}

func randVals(r *rng.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (0.05 + r.Float64()) * magnitudes[r.Intn(len(magnitudes))]
	}
	return out
}

// randBlocks draws n pattern blocks of width lanes with one shared
// magnitude per block, so whole patterns sink below scaleThreshold
// together — the only way the rescale branch fires with real CLVs.
func randBlocks(r *rng.RNG, n, width int) []float64 {
	out := make([]float64, n*width)
	for k := 0; k < n; k++ {
		m := magnitudes[r.Intn(len(magnitudes))]
		for i := 0; i < width; i++ {
			out[k*width+i] = (0.05 + r.Float64()) * m
		}
	}
	return out
}

func randMats(r *rng.RNG, n int) [][16]float64 {
	pm := make([][16]float64, n)
	for c := range pm {
		for i := range pm[c] {
			pm[c][i] = r.Float64()
		}
	}
	return pm
}

// randCodes cycles the first 16 patterns through every tip code, then
// draws the rest at random.
func randCodes(r *rng.RNG, n int) []msa.State {
	out := make([]msa.State, n)
	for i := range out {
		out[i] = msa.State(r.Intn(16))
		if i < 16 {
			out[i] = msa.State(i)
		}
	}
	return out
}

// randCats assigns each of n patterns one of npc categories; the first
// npc patterns take every category in turn so each matrix is hit.
func randCats(r *rng.RNG, n, npc int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(npc)
		if i < npc {
			out[i] = i
		}
	}
	return out
}

func randScales(r *rng.RNG, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.Intn(4))
	}
	return out
}

func randFreqs(r *rng.RNG) *[4]float64 {
	var f [4]float64
	for i := range f {
		f[i] = 0.1 + r.Float64()
	}
	return &f
}

// specialVals are the lane and site values outside the CLV range that
// the site kernels and the log must still agree on bit for bit.
var specialVals = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072014e-308, // denormals, smallest normal
	math.MaxFloat64, -1, 1,
}

// sprinkle overwrites about one lane in eight of v with a special value.
func sprinkle(r *rng.RNG, v []float64) {
	for i := range v {
		if r.Intn(8) == 0 {
			v[i] = specialVals[r.Intn(len(specialVals))]
		}
	}
}

// sprinkleNoNaN is sprinkle with NaN inputs turned into +Inf: the
// makenewz kernels only ever see NaNs they produce themselves (Inf·0),
// which are the same default NaN on both paths, while a NaN input's
// payload would depend on operand order.
func sprinkleNoNaN(r *rng.RNG, v []float64) {
	sprinkle(r, v)
	for i, x := range v {
		if math.IsNaN(x) {
			v[i] = math.Inf(1)
		}
	}
}

// TestKernelEquivalence is the property test pinning every non-scalar
// kernel set to the scalar reference, entry by entry: randomized inputs
// go through both implementations and every output — CLV lanes, scale
// counters, site values, logs, Newton partials — must be the same
// float64 bit for bit (math.Float64bits), as docs/kernels.md promises.
// The inputs cover a wide magnitude spread, values parked just above and
// below scaleThreshold, all 16 tip codes, CAT category assignments that
// hit every matrix, zero pattern weights, batch lengths that are not a
// multiple of 4, and 0, NaN, ±Inf and denormal values on the site/log
// path. Newview inputs are finite, as every CLV the engine builds is.
func TestKernelEquivalence(t *testing.T) {
	alt := accelTables(t)

	t.Run("newviewII4", func(t *testing.T) {
		r := rng.New(0x11)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(48)
			lv, rv := randBlocks(r, n, 16), randBlocks(r, n, 16)
			pL, pR := randMats(r, 4), randMats(r, 4)
			lsc, rsc := randScales(r, n), randScales(r, n)
			ref := make([]float64, n*16)
			refSC := make([]int32, n)
			scalarKernels.newviewII4(ref, lv, rv, pL, pR, lsc, rsc, refSC)
			for _, kt := range alt {
				got := make([]float64, n*16)
				gotSC := make([]int32, n)
				kt.newviewII4(got, lv, rv, pL, pR, lsc, rsc, gotSC)
				sameScales(t, kt.name, trial, refSC, gotSC)
				for i := range ref {
					sameBits(t, kt.name, trial, "clv", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("newviewTT4", func(t *testing.T) {
		r := rng.New(0x22)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(48)
			lutL, lutR := randVals(r, 256), randVals(r, 256)
			codesL, codesR := randCodes(r, n), randCodes(r, n)
			ref := make([]float64, n*16)
			refSC := make([]int32, n)
			scalarKernels.newviewTT4(ref, codesL, codesR, lutL, lutR, refSC)
			for _, kt := range alt {
				got := make([]float64, n*16)
				gotSC := make([]int32, n)
				kt.newviewTT4(got, codesL, codesR, lutL, lutR, gotSC)
				sameScales(t, kt.name, trial, refSC, gotSC)
				for i := range ref {
					sameBits(t, kt.name, trial, "clv", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("newviewTI4", func(t *testing.T) {
		r := rng.New(0x33)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(48)
			lut := randVals(r, 256)
			iv := randBlocks(r, n, 16)
			pm := randMats(r, 4)
			codes := randCodes(r, n)
			isc := randScales(r, n)
			ref := make([]float64, n*16)
			refSC := make([]int32, n)
			scalarKernels.newviewTI4(ref, codes, lut, iv, pm, isc, refSC)
			for _, kt := range alt {
				got := make([]float64, n*16)
				gotSC := make([]int32, n)
				kt.newviewTI4(got, codes, lut, iv, pm, isc, gotSC)
				sameScales(t, kt.name, trial, refSC, gotSC)
				for i := range ref {
					sameBits(t, kt.name, trial, "clv", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("mkzCoreG4", func(t *testing.T) {
		r := rng.New(0x44)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(48)
			tbl := randBlocks(r, n, 16)
			w := make([]int, n)
			for i := range w {
				// Zero weights (patterns a bootstrap replicate leaves out)
				// must be skipped by both paths without touching the sums.
				if r.Intn(4) == 0 {
					w[i] = 0
				} else {
					w[i] = 1 + r.Intn(50)
				}
			}
			var pw [48]float64
			for i := range pw {
				pw[i] = (0.05 + r.Float64()) * magnitudes[r.Intn(3)]
			}
			if trial%3 == 2 {
				// Dead sites (siteL below the clamp, or exactly 0) are
				// skipped by both paths; a NaN site (Inf·0) is not.
				sprinkleNoNaN(r, tbl)
			}
			refD1, refD2 := scalarKernels.mkzCoreG4(tbl, w, &pw)
			for _, kt := range alt {
				gotD1, gotD2 := kt.mkzCoreG4(tbl, w, &pw)
				sameBits(t, kt.name, trial, "d1", 0, refD1, gotD1)
				sameBits(t, kt.name, trial, "d2", 0, refD2, gotD2)
			}
		}
	})

	t.Run("mkzSetup", func(t *testing.T) {
		r := rng.New(0x45)
		for trial := 0; trial < 400; trial++ {
			// CAT (one category) and GAMMA (four, and the generic
			// counts), each endpoint an inner CLV or a tip vector shared
			// by all categories; pattern counts not a multiple of 4.
			n, nCat := 1+r.Intn(70), []int{1, 4, 1 + r.Intn(6)}[trial%3]
			aStep, aCat := nCat*4, 4
			if r.Intn(3) == 0 {
				aStep, aCat = 4, 0
			}
			bStep, bCat := nCat*4, 4
			if r.Intn(3) == 0 {
				bStep, bCat = 4, 0
			}
			av, bv := randBlocks(r, n, aStep/4*4), randBlocks(r, n, bStep/4*4)
			if trial%4 == 3 {
				sprinkleNoNaN(r, av)
			}
			var left, right [16]float64
			for i := range left {
				left[i] = r.Float64() - 0.5
				right[i] = 2*r.Float64() - 1
			}
			ref := make([]float64, n*nCat*4)
			scalarKernels.mkzSetup(ref, av, bv, nCat, aStep, aCat, bStep, bCat, &left, &right)
			for _, kt := range alt {
				got := make([]float64, n*nCat*4)
				kt.mkzSetup(got, av, bv, nCat, aStep, aCat, bStep, bCat, &left, &right)
				for i := range ref {
					sameBits(t, kt.name, trial, "sumtable", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("mkzCoreCAT", func(t *testing.T) {
		r := rng.New(0x46)
		for trial := 0; trial < 400; trial++ {
			n, npc := 1+r.Intn(70), 1+r.Intn(25)
			tbl := randBlocks(r, n, 4)
			for i := range tbl {
				// eigenbasis projections take both signs
				if r.Intn(3) == 0 {
					tbl[i] = -tbl[i]
				}
			}
			if trial%3 == 2 {
				sprinkleNoNaN(r, tbl)
			}
			w := make([]int, n)
			for i := range w {
				if r.Intn(4) == 0 {
					w[i] = 0
				} else {
					w[i] = 1 + r.Intn(50)
				}
			}
			cat := randCats(r, n, npc)
			fE, f1, f2 := randVals(r, 4*npc), randVals(r, 4*npc), randVals(r, 4*npc)
			for i := range f1 {
				f1[i] = -f1[i] // λ·r·e^(λrt): eigenvalues are <= 0
			}
			if trial%5 == 4 {
				// whole categories whose sites land under the clamp
				for c := 0; c < npc; c += 2 {
					for j := 0; j < 4; j++ {
						fE[c*4+j] = 1e-300 * (r.Float64() - 0.5)
					}
				}
			}
			refD1, refD2 := scalarKernels.mkzCoreCAT(tbl, w, cat, fE, f1, f2)
			for _, kt := range alt {
				gotD1, gotD2 := kt.mkzCoreCAT(tbl, w, cat, fE, f1, f2)
				sameBits(t, kt.name, trial, "d1", 0, refD1, gotD1)
				sameBits(t, kt.name, trial, "d2", 0, refD2, gotD2)
			}
		}
	})

	t.Run("newviewTTCAT", func(t *testing.T) {
		r := rng.New(0x66)
		for trial := 0; trial < 300; trial++ {
			n, npc := 1+r.Intn(70), 1+r.Intn(25)
			lutL, lutR := randVals(r, 64*npc), randVals(r, 64*npc)
			codesL, codesR := randCodes(r, n), randCodes(r, n)
			cat := randCats(r, n, npc)
			ref := make([]float64, n*4)
			refSC := make([]int32, n)
			scalarKernels.newviewTTCAT(ref, codesL, codesR, cat, lutL, lutR, refSC)
			for _, kt := range alt {
				got := make([]float64, n*4)
				gotSC := make([]int32, n)
				kt.newviewTTCAT(got, codesL, codesR, cat, lutL, lutR, gotSC)
				sameScales(t, kt.name, trial, refSC, gotSC)
				for i := range ref {
					sameBits(t, kt.name, trial, "clv", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("newviewTICAT", func(t *testing.T) {
		r := rng.New(0x77)
		for trial := 0; trial < 300; trial++ {
			n, npc := 1+r.Intn(70), 1+r.Intn(25)
			lut := randVals(r, 64*npc)
			iv := randBlocks(r, n, 4)
			pm := randMats(r, npc)
			codes := randCodes(r, n)
			cat := randCats(r, n, npc)
			isc := randScales(r, n)
			ref := make([]float64, n*4)
			refSC := make([]int32, n)
			scalarKernels.newviewTICAT(ref, codes, cat, lut, iv, pm, isc, refSC)
			for _, kt := range alt {
				got := make([]float64, n*4)
				gotSC := make([]int32, n)
				kt.newviewTICAT(got, codes, cat, lut, iv, pm, isc, gotSC)
				sameScales(t, kt.name, trial, refSC, gotSC)
				for i := range ref {
					sameBits(t, kt.name, trial, "clv", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("newviewIICAT", func(t *testing.T) {
		r := rng.New(0x88)
		for trial := 0; trial < 300; trial++ {
			n, npc := 1+r.Intn(70), 1+r.Intn(25)
			lv, rv := randBlocks(r, n, 4), randBlocks(r, n, 4)
			pL, pR := randMats(r, npc), randMats(r, npc)
			cat := randCats(r, n, npc)
			lsc, rsc := randScales(r, n), randScales(r, n)
			ref := make([]float64, n*4)
			refSC := make([]int32, n)
			scalarKernels.newviewIICAT(ref, lv, rv, cat, pL, pR, lsc, rsc, refSC)
			for _, kt := range alt {
				got := make([]float64, n*4)
				gotSC := make([]int32, n)
				kt.newviewIICAT(got, lv, rv, cat, pL, pR, lsc, rsc, gotSC)
				sameScales(t, kt.name, trial, refSC, gotSC)
				for i := range ref {
					sameBits(t, kt.name, trial, "clv", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("scanSiteCAT", func(t *testing.T) {
		r := rng.New(0x99)
		for trial := 0; trial < 400; trial++ {
			n, npc := 1+r.Intn(70), 1+r.Intn(25)
			xv, yv, sv := randBlocks(r, n, 4), randBlocks(r, n, 4), randBlocks(r, n, 4)
			if trial%2 == 1 {
				sprinkle(r, xv)
				sprinkle(r, sv)
			}
			px, py, pe := randMats(r, npc), randMats(r, npc), randMats(r, npc)
			cat := randCats(r, n, npc)
			freqs := randFreqs(r)
			ref := make([]float64, n)
			scalarKernels.scanSiteCAT(ref, xv, yv, sv, cat, px, py, pe, freqs)
			for _, kt := range alt {
				got := make([]float64, n)
				kt.scanSiteCAT(got, xv, yv, sv, cat, px, py, pe, freqs)
				for i := range ref {
					sameBits(t, kt.name, trial, "site", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("evalSiteCAT", func(t *testing.T) {
		r := rng.New(0xAA)
		for trial := 0; trial < 400; trial++ {
			n, npc := 1+r.Intn(70), 1+r.Intn(25)
			av, bv := randBlocks(r, n, 4), randBlocks(r, n, 4)
			for i := range av {
				// Zero lanes of av are skipped by the scalar loop; the
				// asm masks their terms to +0.
				if r.Intn(4) == 0 {
					av[i] = 0
				}
			}
			if trial%2 == 1 {
				sprinkle(r, av)
				sprinkle(r, bv)
			}
			pm := randMats(r, npc)
			cat := randCats(r, n, npc)
			freqs := randFreqs(r)
			ref := make([]float64, n)
			scalarKernels.evalSiteCAT(ref, av, bv, cat, pm, freqs)
			for _, kt := range alt {
				got := make([]float64, n)
				kt.evalSiteCAT(got, av, bv, cat, pm, freqs)
				for i := range ref {
					sameBits(t, kt.name, trial, "site", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("log4", func(t *testing.T) {
		r := rng.New(0xBB)
		for trial := 0; trial < 400; trial++ {
			n := r.Intn(150)
			v := make([]float64, n)
			for i := range v {
				switch r.Intn(4) {
				case 0:
					v[i] = math.Float64frombits(r.Uint64()) // any bit pattern
				case 1:
					v[i] = specialVals[r.Intn(len(specialVals))]
				default:
					v[i] = (0.05 + r.Float64()) * magnitudes[r.Intn(len(magnitudes))]
				}
			}
			if trial == 0 {
				v = log4Edges()
			}
			ref := append([]float64(nil), v...)
			scalarKernels.log4(ref)
			for _, kt := range alt {
				got := append([]float64(nil), v...)
				kt.log4(got)
				for i := range ref {
					sameBits(t, kt.name, trial, "log", i, ref[i], got[i])
				}
			}
		}
	})
}

// log4Edges lists the inputs where the log's frexp and Sqrt2/2 branch
// change behaviour: every binade edge, the Sqrt2/2 mantissa and its
// neighbours, the denormal range, ±0, ±Inf, and NaN payloads of both
// signs.
func log4Edges() []float64 {
	const mant = 1<<52 - 1
	const hs = 0x3FE6A09E667F3BCD & mant // math.Sqrt2/2
	var v []float64
	for e := uint64(0); e < 0x800; e++ {
		for _, m := range []uint64{0, 1, hs - 1, hs, hs + 1, mant} {
			v = append(v, math.Float64frombits(e<<52|m), math.Float64frombits(1<<63|e<<52|m))
		}
	}
	return append(v, math.Float64frombits(0x7FF0000000000123), math.Float64frombits(0xFFF8000000000042))
}

// TestKernelEquivalenceAtThreshold parks lane values deliberately on a
// narrow band around scaleThreshold — the branch the two rescale idioms
// (scalar short-circuit chain, asm VMAXPD or VCMPPD + single test) must
// decide identically — and checks the CLVs and counters still match.
// The knife-edge is safe to probe because both paths compare the SAME
// computed values against the same constant; only the control-flow
// shape differs.
func TestKernelEquivalenceAtThreshold(t *testing.T) {
	if !avx2Supported() {
		t.Skip("no accelerated kernel table on this platform/build")
	}
	kt := avx2KernelTable()
	r := rng.New(0x55)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(16)
		lv := make([]float64, n*16)
		rv := make([]float64, n*16)
		for i := range lv {
			// Products of two ~sqrt(threshold) factors straddle the
			// threshold within a few ulps-to-decades.
			s := math.Sqrt(scaleThreshold) * (0.9 + 0.2*r.Float64())
			lv[i] = s
			rv[i] = s * (0.9 + 0.2*r.Float64())
		}
		pm := make([][16]float64, 4)
		for c := range pm {
			for i := range pm[c] {
				pm[c][i] = 0.9 + 0.1*r.Float64()
			}
		}
		lsc, rsc := make([]int32, n), make([]int32, n)
		ref := make([]float64, n*16)
		refSC := make([]int32, n)
		scalarKernels.newviewII4(ref, lv, rv, pm, pm, lsc, rsc, refSC)
		got := make([]float64, n*16)
		gotSC := make([]int32, n)
		kt.newviewII4(got, lv, rv, pm, pm, lsc, rsc, gotSC)
		sameScales(t, kt.name, trial, refSC, gotSC)
		for i := range ref {
			sameBits(t, kt.name, trial, "clv", i, ref[i], got[i])
		}

		// The CAT inner×inner shape on the same knife-edge: one 4-lane
		// block per pattern, all patterns in category 0.
		cat := make([]int, n*4)
		lsc4, rsc4 := make([]int32, n*4), make([]int32, n*4)
		ref4 := make([]float64, n*16)
		refSC4 := make([]int32, n*4)
		scalarKernels.newviewIICAT(ref4, lv, rv, cat, pm, pm, lsc4, rsc4, refSC4)
		got4 := make([]float64, n*16)
		gotSC4 := make([]int32, n*4)
		kt.newviewIICAT(got4, lv, rv, cat, pm, pm, lsc4, rsc4, gotSC4)
		sameScales(t, kt.name, trial, refSC4, gotSC4)
		for i := range ref4 {
			sameBits(t, kt.name, trial, "cat clv", i, ref4[i], got4[i])
		}
	}
}

// TestKernelTablesAgreeOnEngine runs whole engines — CAT and GAMMA,
// plain and bootstrap weights (zero-weight patterns included), two
// workers so stripes end off a multiple of 4 — once per kernel table
// and requires the same bits for the tree log-likelihood, every site
// log-likelihood and every lazy-SPR insertion score.
func TestKernelTablesAgreeOnEngine(t *testing.T) {
	alt := accelTables(t)
	if len(alt) == 0 {
		return
	}
	r := rng.New(0xCC)
	pat := randomPatterns(t, r, 12, 301)
	perSite := make([]float64, pat.NumPatterns())
	for i := range perSite {
		perSite[i] = 0.25 + 2*r.Float64()
	}
	gamma, err := gtr.NewGamma(0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.Random(pat.Names, r)
	rates := map[string]*gtr.RateCategories{"CAT": gtr.ClusterCAT(perSite, 9), "GAMMA": gamma}
	for name, rc := range rates {
		for _, boot := range []bool{false, true} {
			type result struct {
				ll, site, scans []float64
			}
			run := func(kt *kernelTable) result {
				e := newEngine(t, pat, gtr.Default(), rc.Clone(), 2)
				e.kern = kt
				tt := tr.Clone()
				if err := e.AttachTree(tt); err != nil {
					t.Fatal(err)
				}
				if boot {
					e.SetWeights(pat.Resample(rng.New(77)))
				}
				res := result{ll: []float64{e.LogLikelihood()}, site: e.SiteLogLikelihoods(nil)}
				for _, ed := range tt.Edges() {
					root, attach := ed.A, ed.B
					if tt.Nodes[attach].IsTip() {
						root, attach = attach, root
					}
					if tt.Nodes[attach].IsTip() {
						continue
					}
					p, err := tt.DanglingPrune(root, attach)
					if err != nil {
						continue
					}
					e.InvalidateAll()
					for _, c := range tt.RegraftCandidates(p, 3) {
						res.scans = append(res.scans, e.EvaluateInsertion(root, p.Attach, c.A, c.B))
					}
					tt.PlugBack(p)
					e.InvalidateAll()
				}
				return res
			}
			ref := run(&scalarKernels)
			if len(ref.scans) == 0 {
				t.Fatalf("%s: no insertions scored", name)
			}
			for _, kt := range alt {
				got := run(kt)
				for i := range ref.ll {
					sameBits(t, kt.name, 0, name+" lnL", i, ref.ll[i], got.ll[i])
				}
				for i := range ref.site {
					sameBits(t, kt.name, 0, name+" site lnL", i, ref.site[i], got.site[i])
				}
				for i := range ref.scans {
					sameBits(t, kt.name, 0, name+" insertion", i, ref.scans[i], got.scans[i])
				}
			}
		}
	}
}

// FuzzLog4: any float64 bit pattern, in every lane position of a 4-lane
// group and in the padded tail, must come out of every kernel table's
// log4 with the bits of math.Log — NaN payloads and signs included.
func FuzzLog4(f *testing.F) {
	for _, x := range specialVals {
		f.Add(math.Float64bits(x))
	}
	f.Add(uint64(0x3FE6A09E667F3BCD)) // math.Sqrt2/2
	f.Add(uint64(0x7FF0000000000001)) // signalling NaN
	f.Fuzz(func(t *testing.T, x uint64) {
		want := math.Float64bits(math.Log(math.Float64frombits(x)))
		for _, kt := range append([]*kernelTable{&scalarKernels}, accelTables(t)...) {
			for n := 1; n <= 7; n++ {
				v := make([]float64, n)
				for i := range v {
					v[i] = 1
				}
				v[n-1] = math.Float64frombits(x)
				kt.log4(v)
				if got := math.Float64bits(v[n-1]); got != want {
					t.Fatalf("%s log4 lane %d of %d: log(%#016x) = %#016x, math.Log gives %#016x", kt.name, n-1, n, x, got, want)
				}
			}
		}
	})
}

// fuzzSource hands out the fuzzer's bytes as typed values, cycling when
// they run out (an empty input yields zeros).
type fuzzSource struct {
	b []byte
	i int
}

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[s.i%len(s.b)]
	s.i++
	return c
}

func (s *fuzzSource) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

// float draws a CLV-like value three times in four, otherwise any
// non-NaN bit pattern (a NaN input becomes +Inf: engine inputs are
// never NaN, and the NaNs the kernels themselves produce are all the
// same default NaN whichever path computes them).
func (s *fuzzSource) float() float64 {
	v := s.u64()
	if v&3 != 0 {
		return (0.05 + float64(v>>11)/(1<<53)) * magnitudes[int(v>>2)%len(magnitudes)]
	}
	x := math.Float64frombits(v)
	if math.IsNaN(x) {
		return math.Inf(1)
	}
	return x
}

func (s *fuzzSource) floats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.float()
	}
	return out
}

func (s *fuzzSource) mats(n int) [][16]float64 {
	pm := make([][16]float64, n)
	for c := range pm {
		copy(pm[c][:], s.floats(16))
	}
	return pm
}

// FuzzCATKernels: random CLVs, matrices, lookup tables, tip codes,
// categories and scale counters must give identical bits from every
// accelerated kernel table and the scalar reference, for all CAT
// entries.
func FuzzCATKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 0x40, 0x10, 0x99, 0xFF, 0x00, 0x7F, 0xF0, 0x01})
	r := rng.New(0xDD)
	for i := 0; i < 4; i++ {
		b := make([]byte, 64+r.Intn(512))
		for j := range b {
			b[j] = byte(r.Intn(256))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		alt := accelTables(t)
		if len(alt) == 0 {
			t.Skip("no accelerated kernel table")
		}
		s := &fuzzSource{b: data}
		n, npc := 1+int(s.byte())%70, 1+int(s.byte())%25
		cat := make([]int, n)
		codesL, codesR := make([]msa.State, n), make([]msa.State, n)
		sc1, sc2 := make([]int32, n), make([]int32, n)
		for k := 0; k < n; k++ {
			cat[k] = int(s.byte()) % npc
			codesL[k], codesR[k] = msa.State(s.byte()&15), msa.State(s.byte()&15)
			sc1[k], sc2[k] = int32(s.u64()), int32(s.u64())
		}
		lutL, lutR := s.floats(64*npc), s.floats(64*npc)
		v1, v2, v3 := s.floats(4*n), s.floats(4*n), s.floats(4*n)
		pL, pR, pE := s.mats(npc), s.mats(npc), s.mats(npc)
		var freqs [4]float64
		copy(freqs[:], s.floats(4))

		w := make([]int, n)
		for k := range w {
			w[k] = int(s.byte()) % 4 // a quarter of the patterns weigh 0
		}
		var left, right [16]float64
		copy(left[:], s.floats(16))
		copy(right[:], s.floats(16))

		type out struct {
			tt, ti, ii, scan, eval, lg []float64
			setup, setupTip, core      []float64
			ttS, tiS, iiS              []int32
		}
		run := func(kt *kernelTable) out {
			o := out{
				tt: make([]float64, 4*n), ti: make([]float64, 4*n), ii: make([]float64, 4*n),
				scan: make([]float64, n), eval: make([]float64, n),
				setup: make([]float64, 4*n), setupTip: make([]float64, 4*n),
				ttS: make([]int32, n), tiS: make([]int32, n), iiS: make([]int32, n),
			}
			kt.mkzSetup(o.setup, v1, v2, 1, 4, 4, 4, 4, &left, &right)
			// a GAMMA-shaped tip block shared by every category
			kt.mkzSetup(o.setupTip, v3, v1, 4, 4, 0, 16, 4, &left, &right)
			d1, d2 := kt.mkzCoreCAT(o.setup, w, cat, lutL[:4*npc], lutR[:4*npc], lutL[4*npc:8*npc])
			o.core = []float64{d1, d2}
			kt.newviewTTCAT(o.tt, codesL, codesR, cat, lutL, lutR, o.ttS)
			kt.newviewTICAT(o.ti, codesL, cat, lutL, v1, pL, sc1, o.tiS)
			kt.newviewIICAT(o.ii, v1, v2, cat, pL, pR, sc1, sc2, o.iiS)
			kt.scanSiteCAT(o.scan, v1, v2, v3, cat, pL, pR, pE, &freqs)
			kt.evalSiteCAT(o.eval, v1, v2, cat, pE, &freqs)
			o.lg = append([]float64(nil), o.scan...)
			kt.log4(o.lg)
			return o
		}
		ref := run(&scalarKernels)
		for _, kt := range alt {
			got := run(kt)
			sameScales(t, kt.name, 0, ref.ttS, got.ttS)
			sameScales(t, kt.name, 0, ref.tiS, got.tiS)
			sameScales(t, kt.name, 0, ref.iiS, got.iiS)
			for name, pair := range map[string][2][]float64{
				"newviewTTCAT": {ref.tt, got.tt}, "newviewTICAT": {ref.ti, got.ti},
				"newviewIICAT": {ref.ii, got.ii}, "scanSiteCAT": {ref.scan, got.scan},
				"evalSiteCAT": {ref.eval, got.eval}, "log4": {ref.lg, got.lg},
				"mkzSetup": {ref.setup, got.setup}, "mkzSetupTip": {ref.setupTip, got.setupTip},
				"mkzCoreCAT": {ref.core, got.core},
			} {
				for i := range pair[0] {
					sameBits(t, kt.name, 0, name, i, pair[0][i], pair[1][i])
				}
			}
		}
	})
}

// TestCATKernelsRejectBadCategory: a pattern category outside the
// partition's matrix block must panic in every accelerated kernel
// table, never read past the matrices or lookup tables. (The scalar
// reference indexes Go slices, so it cannot read out of bounds.)
func TestCATKernelsRejectBadCategory(t *testing.T) {
	r := rng.New(0xEE)
	const n, npc = 9, 3
	lut := randVals(r, 64*npc)
	v := randBlocks(r, n, 4)
	pm := randMats(r, npc)
	codes := randCodes(r, n)
	sc := randScales(r, n)
	freqs := randFreqs(r)
	for _, kt := range accelTables(t) {
		for _, bad := range []int{npc + 40, -1} {
			cat := randCats(r, n, npc)
			cat[n-2] = bad
			calls := map[string]func(){
				"newviewTTCAT": func() { kt.newviewTTCAT(make([]float64, 4*n), codes, codes, cat, lut, lut, make([]int32, n)) },
				"newviewTICAT": func() { kt.newviewTICAT(make([]float64, 4*n), codes, cat, lut, v, pm, sc, make([]int32, n)) },
				"newviewIICAT": func() { kt.newviewIICAT(make([]float64, 4*n), v, v, cat, pm, pm, sc, sc, make([]int32, n)) },
				"scanSiteCAT":  func() { kt.scanSiteCAT(make([]float64, n), v, v, v, cat, pm, pm, pm, freqs) },
				"evalSiteCAT":  func() { kt.evalSiteCAT(make([]float64, n), v, v, cat, pm, freqs) },
				"mkzCoreCAT": func() {
					kt.mkzCoreCAT(v, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}, cat, lut[:4*npc], lut[:4*npc], lut[:4*npc])
				},
			}
			for name, call := range calls {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s %s: category %d of %d did not panic", kt.name, name, bad, npc)
						}
					}()
					call()
				}()
			}
		}
	}
}
