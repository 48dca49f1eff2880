package search

import (
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/parsimony"
	"raxml/internal/rng"
	"raxml/internal/seqgen"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

func testData(t *testing.T, taxa, chars int, seed int64) *msa.Patterns {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{
		Taxa: taxa, Chars: chars, Seed: seed, TreeScale: 0.5, Alpha: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

func testEngine(t *testing.T, pat *msa.Patterns, workers int) *likelihood.Engine {
	t.Helper()
	pool := threads.NewPool(workers, pat.NumPatterns())
	t.Cleanup(pool.Close)
	eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestFastSearchImprovesRandomStart(t *testing.T) {
	pat := testData(t, 12, 400, 1)
	eng := testEngine(t, pat, 1)
	start := tree.Random(pat.Names, rng.New(5))
	if err := eng.AttachTree(start.Clone()); err != nil {
		t.Fatal(err)
	}
	startLL := eng.OptimizeAllBranches(2, 0.01)

	res, err := Run(eng, start, Fast())
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLikelihood < startLL-1e-6 {
		t.Fatalf("fast search worsened logL: %.4f -> %.4f", startLL, res.LogLikelihood)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatalf("search returned invalid tree: %v", err)
	}
	if res.ScannedInsertions == 0 {
		t.Fatal("search scanned no insertions")
	}
}

func TestSearchRecoversTrueTreeNeighborhood(t *testing.T) {
	// On clean simulated data, a thorough search from a parsimony start
	// must land near the generating topology.
	a, truth, err := seqgen.Generate(seqgen.Config{
		Taxa: 10, Chars: 1500, Seed: 3, TreeScale: 0.4, Alpha: 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := msa.Compress(a)
	eng := testEngine(t, pat, 2)
	start := parsimony.StepwiseAddition(pat, rng.New(7), eng.ThreadPool())
	res, err := Run(eng, start, Thorough())
	if err != nil {
		t.Fatal(err)
	}
	d, err := tree.RobinsonFoulds(res.Tree, truth)
	if err != nil {
		t.Fatal(err)
	}
	if max := tree.MaxRFDistance(10); d > max/2 {
		t.Fatalf("thorough search ended RF=%d from truth (max %d)", d, max)
	}
}

func TestSearchMonotoneAcrossPresets(t *testing.T) {
	// thorough >= slow >= fast when started from the same tree.
	pat := testData(t, 12, 500, 9)
	start := parsimony.StepwiseAddition(pat, rng.New(2), nil)

	lls := map[string]float64{}
	for _, s := range []Settings{Fast(), Slow(), Thorough()} {
		eng := testEngine(t, pat, 1)
		res, err := Run(eng, start.Clone(), s)
		if err != nil {
			t.Fatal(err)
		}
		lls[s.Name] = res.LogLikelihood
	}
	if lls["slow"] < lls["fast"]-0.5 {
		t.Errorf("slow search (%.3f) clearly worse than fast (%.3f)", lls["slow"], lls["fast"])
	}
	if lls["thorough"] < lls["slow"]-0.5 {
		t.Errorf("thorough search (%.3f) clearly worse than slow (%.3f)", lls["thorough"], lls["slow"])
	}
}

func TestSearchDeterministic(t *testing.T) {
	pat := testData(t, 10, 300, 11)
	start := parsimony.StepwiseAddition(pat, rng.New(4), nil)
	run := func() (float64, string) {
		eng := testEngine(t, pat, 2)
		res, err := Run(eng, start.Clone(), Fast())
		if err != nil {
			t.Fatal(err)
		}
		nw, _ := tree.FormatNewick(res.Tree, nil)
		return res.LogLikelihood, nw
	}
	ll1, nw1 := run()
	ll2, nw2 := run()
	if ll1 != ll2 || nw1 != nw2 {
		t.Fatalf("search not deterministic: %.10f vs %.10f", ll1, ll2)
	}
}

func TestSearchThreadInvariance(t *testing.T) {
	pat := testData(t, 10, 400, 13)
	start := parsimony.StepwiseAddition(pat, rng.New(4), nil)
	var refLL float64
	var refNW string
	for i, workers := range []int{1, 2, 4} {
		eng := testEngine(t, pat, workers)
		res, err := Run(eng, start.Clone(), Fast())
		if err != nil {
			t.Fatal(err)
		}
		nw, _ := tree.FormatNewick(res.Tree, nil)
		if i == 0 {
			refLL, refNW = res.LogLikelihood, nw
			continue
		}
		if math.Abs(res.LogLikelihood-refLL) > 1e-6*math.Abs(refLL) {
			t.Fatalf("workers=%d: logL %.8f vs serial %.8f", workers, res.LogLikelihood, refLL)
		}
		if nw != refNW {
			t.Fatalf("workers=%d: topology differs from serial run", workers)
		}
	}
}

func TestSearchWithGamma(t *testing.T) {
	pat := testData(t, 8, 300, 15)
	pool := threads.NewPool(1, pat.NumPatterns())
	t.Cleanup(pool.Close)
	rates, err := gtr.NewGamma(1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.New(pat, gtr.Default(), rates, likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	start := parsimony.StepwiseAddition(pat, rng.New(1), nil)
	res, err := Run(eng, start, Fast())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.LogLikelihood) || math.IsInf(res.LogLikelihood, 0) {
		t.Fatalf("GAMMA search returned logL %v", res.LogLikelihood)
	}
}

func TestSearchOnBootstrapWeights(t *testing.T) {
	pat := testData(t, 10, 350, 17)
	eng := testEngine(t, pat, 2)
	w := pat.Resample(rng.New(99))
	eng.SetWeights(w)
	start := parsimony.StepwiseAddition(pat, rng.New(1), nil)
	res, err := Run(eng, start, Bootstrap())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatalf("bootstrap search returned invalid tree: %v", err)
	}
}

func TestPresetShapes(t *testing.T) {
	f, s, th, b := Fast(), Slow(), Thorough(), Bootstrap()
	if f.MaxPasses != 1 {
		t.Error("fast preset should run a single pass")
	}
	if !s.OptimizeModel {
		t.Error("slow preset should optimize the model")
	}
	if !th.OptimizeModel || !th.OptimizePerSiteRates {
		t.Error("thorough preset should fully optimize the model")
	}
	if th.MaxRadius < s.MaxRadius {
		t.Error("thorough radius should be at least slow radius")
	}
	if b.Epsilon < f.Epsilon {
		t.Error("bootstrap preset should be at least as greedy as fast")
	}
}

func TestRunRejectsMismatchedTaxa(t *testing.T) {
	pat := testData(t, 8, 100, 19)
	eng := testEngine(t, pat, 1)
	other := tree.Random([]string{"w", "x", "y", "z"}, rng.New(1))
	if _, err := Run(eng, other, Fast()); err == nil {
		t.Fatal("accepted tree over wrong taxon set")
	}
}

func BenchmarkFastSearch(b *testing.B) {
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 16, Chars: 600, Seed: 2, TreeScale: 0.5, Alpha: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	pat, _ := msa.Compress(a)
	pool := threads.NewPool(2, pat.NumPatterns())
	defer pool.Close()
	start := parsimony.StepwiseAddition(pat, rng.New(3), pool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), likelihood.Config{Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(eng, start.Clone(), Fast()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSPRPassKeepsModelEpoch pins what the exact invalidation of the
// lazy-SPR edits buys a distributed master: a topology-only pass moves
// no model epoch, so a -fine master ships no model block per pruning
// and keeps its delta-descriptor caches warm.
func TestSPRPassKeepsModelEpoch(t *testing.T) {
	pat := testData(t, 14, 500, 4)
	eng := testEngine(t, pat, 1)
	start := tree.Random(pat.Names, rng.New(6))
	if err := eng.AttachTree(start); err != nil {
		t.Fatal(err)
	}
	best := eng.OptimizeAllBranches(1, 0.01)
	model0, topo0 := eng.WireEpochs()
	res := &Result{Tree: start}
	if _, err := sprPass(eng, start, 5, 0.1, &best, res); err != nil {
		t.Fatal(err)
	}
	if res.ScannedInsertions == 0 {
		t.Fatal("pass scanned no insertions")
	}
	if model, topo := eng.WireEpochs(); model != model0 || topo != topo0 {
		t.Fatalf("topology-only sprPass moved the epochs: model %d -> %d, topo %d -> %d", model0, model, topo0, topo)
	}
	// The incrementally maintained views still give the fresh lnL.
	ref := testEngine(t, pat, 1)
	if err := ref.AttachTree(start.Clone()); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.LogLikelihood(), ref.LogLikelihood(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("lnL after the pass: incremental %.17g vs fresh %.17g", got, want)
	}
}

// BenchmarkSPRPass times one lazy-SPR sweep (radius 5) from the same
// random start on a 24-taxon, 600-site alignment — the shape of the
// perfbench fa-ranks inputs — and reports the newviews each sweep
// recomputes. Report-only (not in BENCH_BASELINE.json).
func BenchmarkSPRPass(b *testing.B) {
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 24, Chars: 600, Seed: 11, TreeScale: 0.5, Alpha: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		b.Fatal(err)
	}
	pool := threads.NewPool(1, pat.NumPatterns())
	defer pool.Close()
	eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), likelihood.Config{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	start := parsimony.StepwiseAddition(pat, rng.New(7), eng.ThreadPool())
	var newviews int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := start.Clone()
		if err := eng.AttachTree(tr); err != nil {
			b.Fatal(err)
		}
		best := eng.OptimizeAllBranches(1, 0.01)
		nv0, _ := eng.Counts()
		b.StartTimer()
		if _, err := sprPass(eng, tr, 5, 0.1, &best, &Result{Tree: tr}); err != nil {
			b.Fatal(err)
		}
		nv1, _ := eng.Counts()
		newviews += nv1 - nv0
	}
	b.ReportMetric(float64(newviews)/float64(b.N), "newviews/op")
}
