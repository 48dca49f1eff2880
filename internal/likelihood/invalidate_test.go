package likelihood

import (
	"fmt"
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// The exact-invalidation oracle. The lazy-SPR edit methods (DanglingPrune,
// Plug, UnplugKeepDangling, PlugBack) drop only the views that look
// across an edit; every view they leave marked valid must be exactly the
// CLV a fresh engine computes for the same tree. The driver below runs
// random prune → partial scan → {plug back | plug + junction
// optimization | plug, unplug, plug back} sequences and, after every
// edit, recomputes every still-valid view on a fresh engine attached to
// a clone of the tree and compares the CLV lanes and scale counters bit
// for bit — together with the insertion scores and, whenever the tree is
// whole, the log-likelihood.

// invalidationConfig builds engines of one configuration: kind 0 is
// CAT, 1 GAMMA, 2 a two-partition CAT alignment. mk returns a new
// engine sharing the model and rate instances of every other engine it
// made, so a fresh reference computes with exactly the same parameters.
func invalidationConfig(t *testing.T, r *rng.RNG, kind, nTaxa int) (mk func() *Engine, taxa []string) {
	t.Helper()
	a := randomAlignment(t, r, nTaxa, 90+r.Intn(60))
	catRates := []float64{0.3, 1, 2.4}
	switch kind {
	case 2:
		pat, err := msa.CompressPartitioned(a, msa.ContiguousPartitions(a.NumChars(), 2))
		if err != nil {
			t.Fatal(err)
		}
		set := &gtr.PartitionSet{}
		for i, pr := range pat.PartRanges() {
			m := gtr.Default()
			if err := m.SetRates([6]float64{1 + float64(i), 2, 0.5, 1.5, 3, 1}); err != nil {
				t.Fatal(err)
			}
			set.Models = append(set.Models, m)
			set.Rates = append(set.Rates, contentCAT(pat, pr.Lo, pr.Hi, catRates))
		}
		return func() *Engine {
			e, err := NewPartitioned(pat, set, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}, pat.Names
	default:
		pat, err := msa.Compress(a)
		if err != nil {
			t.Fatal(err)
		}
		model := gtr.Default()
		rates := contentCAT(pat, 0, pat.NumPatterns(), catRates)
		if kind == 1 {
			if rates, err = gtr.NewGamma(0.7, 4); err != nil {
				t.Fatal(err)
			}
		}
		return func() *Engine {
			e, err := New(pat, model, rates, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}, pat.Names
	}
}

// sameView fails unless directed view (node, slot) holds the same CLV
// lanes and scale counters, bit for bit, in engines got and want.
func sameView(t *testing.T, what string, got, want *Engine, node, slot int) {
	t.Helper()
	g, w := got.viewOf(node, slot), want.viewOf(node, slot)
	for pi := range got.parts {
		ps := &got.parts[pi]
		n := ps.hi - ps.lo
		for i := ps.fOff; i < ps.fOff+n*got.nCat*4; i++ {
			if math.Float64bits(g.vec[i]) != math.Float64bits(w.vec[i]) {
				t.Fatalf("%s: valid view (%d, %d) float %d: incremental %g vs fresh %g", what, node, slot, i, g.vec[i], w.vec[i])
			}
		}
		for i := ps.sOff; i < ps.sOff+n; i++ {
			if g.scale[i] != w.scale[i] {
				t.Fatalf("%s: valid view (%d, %d) scale %d: incremental %d vs fresh %d", what, node, slot, i, g.scale[i], w.scale[i])
			}
		}
	}
}

// runInvalidationOracle drives one engine of the given configuration
// through `moves` random lazy-SPR moves, checking it against fresh
// engines after every edit.
func runInvalidationOracle(t *testing.T, seed int64, kind, nTaxa, moves int) {
	r := rng.New(seed)
	mk, taxa := invalidationConfig(t, r, kind, nTaxa)
	tr := tree.Random(taxa, r)
	e := mk()
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	e.OptimizeAllBranches(1, 0.1)

	// fresh attaches a new engine to a clone of the current tree and
	// checks every view e holds valid against it.
	fresh := func(what string) *Engine {
		t.Helper()
		ref := mk()
		if err := ref.AttachTree(tr.Clone()); err != nil {
			t.Fatal(err)
		}
		var views [][2]int
		for idx, ok := range e.valid {
			if ok && !tr.Nodes[idx/3].IsTip() {
				views = append(views, [2]int{idx / 3, idx % 3})
			}
		}
		ref.refreshViews(views...)
		for _, v := range views {
			sameView(t, what, e, ref, v[0], v[1])
		}
		return ref
	}
	whole := func(what string) {
		t.Helper()
		ref := fresh(what)
		got, want := e.LogLikelihood(), ref.LogLikelihood()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: lnL incremental %.17g vs fresh %.17g", what, got, want)
		}
		// LogLikelihood refreshed views of e: check those too.
		fresh(what + " (after evaluate)")
	}

	// scan scores a random part of the candidates on both engines, then
	// checks the views the scan computed.
	scan := func(what string, root int, p *tree.PrunedSubtree, cands []tree.Edge) {
		t.Helper()
		ref := fresh("before " + what)
		for _, c := range cands {
			if r.Intn(3) == 0 {
				continue
			}
			got := e.EvaluateInsertion(root, p.Attach, c.A, c.B)
			want := ref.EvaluateInsertion(root, p.Attach, c.A, c.B)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: insertion (%d, %d) incremental %.17g vs fresh %.17g", what, c.A, c.B, got, want)
			}
		}
		fresh(what)
	}

	for move := 0; move < moves; move++ {
		var prunings [][2]int
		for _, ed := range tr.Edges() {
			if !tr.Nodes[ed.B].IsTip() {
				prunings = append(prunings, [2]int{ed.A, ed.B})
			}
			if !tr.Nodes[ed.A].IsTip() {
				prunings = append(prunings, [2]int{ed.B, ed.A})
			}
		}
		pr := prunings[r.Intn(len(prunings))]
		root := pr[0]
		p, err := e.DanglingPrune(root, pr[1])
		if err != nil {
			t.Fatal(err)
		}
		fresh("prune")

		cands := tr.RegraftCandidates(p, 1+r.Intn(4))
		scan("scan", root, p, cands)

		target := cands[r.Intn(len(cands))]
		switch r.Intn(3) {
		case 0:
			e.PlugBack(p)
			whole("plug back")
		case 1:
			if err := e.Plug(p, target); err != nil {
				t.Fatal(err)
			}
			whole("plug")
			e.OptimizeJunction(p.Attach)
			whole("junction")
		default:
			if err := e.Plug(p, target); err != nil {
				t.Fatal(err)
			}
			// Evaluating computes views that contain the junction.
			whole("plug")
			if r.Intn(2) == 0 {
				// Optimized halves make the restored edge's length differ
				// from its length before the plug.
				e.OptimizeJunction(p.Attach)
				whole("junction")
			}
			e.UnplugKeepDangling(p, target)
			fresh("unplug")
			scan("rescan", root, p, cands)
			e.PlugBack(p)
			whole("plug back")
		}
	}
}

// TestIncrementalInvalidation runs the oracle over CAT, GAMMA and
// two-partition engines on trees of 8 to 40 taxa.
func TestIncrementalInvalidation(t *testing.T) {
	for kind, name := range []string{"CAT", "GAMMA", "partitioned"} {
		for _, nTaxa := range []int{8, 17, 40} {
			moves := 8
			if nTaxa == 40 {
				moves = 4
			}
			t.Run(fmt.Sprintf("%s/taxa=%d", name, nTaxa), func(t *testing.T) {
				runInvalidationOracle(t, int64(101*kind+nTaxa), kind, nTaxa, moves)
			})
		}
	}
}

func FuzzIncrementalInvalidation(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(3))
	f.Add(int64(7), uint8(1), uint8(9), uint8(2))
	f.Add(int64(42), uint8(2), uint8(32), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, kind, taxa, moves uint8) {
		runInvalidationOracle(t, seed, int(kind%3), 8+int(taxa%33), 1+int(moves%4))
	})
}

// TestInvalidationAllocationFree pins the engine-held walk stack: on a
// warm engine, the exact invalidations allocate nothing.
func TestInvalidationAllocationFree(t *testing.T) {
	r := rng.New(9)
	mk, taxa := invalidationConfig(t, r, 0, 30)
	tr := tree.Random(taxa, r)
	e := mk()
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	edges := tr.Edges()
	inner := -1
	for _, ed := range edges {
		if !tr.Nodes[ed.A].IsTip() {
			inner = ed.A
			break
		}
	}
	// With every flag set, each walk covers its whole side of the tree.
	all := func() {
		for i := range e.valid {
			e.valid[i] = true
		}
	}
	ed := edges[len(edges)/2]
	if n := testing.AllocsPerRun(20, func() {
		all()
		e.InvalidateEdge(ed.A, ed.B)
	}); n != 0 {
		t.Errorf("InvalidateEdge: %v allocs per run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		all()
		e.InvalidateNode(inner)
	}); n != 0 {
		t.Errorf("InvalidateNode: %v allocs per run, want 0", n)
	}
}
