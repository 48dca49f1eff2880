package likelihood

import (
	"runtime"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// The paper's smallest multi-gene workload class: ~1288 alignment
// patterns. Random DNA makes essentially every column a distinct
// pattern, so 1288 characters compress to 1288 patterns.
func bench1288Patterns(b *testing.B) *msa.Patterns {
	b.Helper()
	r := rng.New(1288)
	letters := []byte("ACGT")
	a := &msa.Alignment{}
	nm := names(50)
	for i := 0; i < 50; i++ {
		a.Names = append(a.Names, nm[i])
		row := make([]msa.State, 1288)
		for j := range row {
			row[j] = msa.EncodeChar(letters[r.Intn(4)])
		}
		a.Seqs = append(a.Seqs, row)
	}
	p, err := msa.Compress(a)
	if err != nil {
		b.Fatal(err)
	}
	if p.NumPatterns() != 1288 {
		b.Fatalf("workload has %d patterns, want 1288", p.NumPatterns())
	}
	return p
}

// BenchmarkNewviewArena measures the newview hot path — a full-tree
// descriptor walk refreshing every directed CLV on the evaluation path —
// on the 1288-pattern workload, under both rate treatments. This is the
// benchmark the flat-CLV arena refactor is gated on (ISSUE 2 acceptance:
// >= 1.3x over the recorded per-slice baseline) and the one benchdiff
// watches most closely for regressions.
func BenchmarkNewviewArena(b *testing.B) {
	pat := bench1288Patterns(b)
	tr := tree.Random(pat.Names, rng.New(3))
	cases := []struct {
		name  string
		rates func() *gtr.RateCategories
	}{
		{"CAT", func() *gtr.RateCategories {
			r := rng.New(5)
			perSite := make([]float64, pat.NumPatterns())
			for i := range perSite {
				perSite[i] = 0.25 + 2*r.Float64()
			}
			return gtr.ClusterCAT(perSite, 25)
		}},
		{"GAMMA", func() *gtr.RateCategories {
			rc, err := gtr.NewGamma(0.8, 4)
			if err != nil {
				b.Fatal(err)
			}
			return rc
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			b.Run(tc.name+"/workers="+string(rune('0'+workers)), func(b *testing.B) {
				if workers > runtime.NumCPU() {
					b.Skipf("%d workers oversubscribe %d CPUs: timings would measure the scheduler", workers, runtime.NumCPU())
				}
				pool := threads.NewPool(workers, pat.NumPatterns())
				defer pool.Close()
				e, err := New(pat, gtr.Default(), tc.rates(), Config{Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.AttachTree(tr); err != nil {
					b.Fatal(err)
				}
				a := 0
				nb := tr.Nodes[0].Neighbors[0]
				slotA := e.slotOf(a, nb)
				slotB := e.slotOf(nb, a)
				_ = e.LogLikelihood() // warm allocation paths
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.InvalidateAll()
					e.refreshViews([2]int{a, slotA}, [2]int{nb, slotB})
				}
			})
		}
	}
}

// BenchmarkInsertionScan measures the lazy-SPR insertion loop — one
// EvaluateInsertion per op over warm CLVs, cycling through the regraft
// candidates of one dangling subtree — on the 1288-pattern workload
// under both rate treatments: the three-way site kernel, the batched
// site log and the serial reduction, plus one dispatch. Report-only
// (not in BENCH_BASELINE.json); ns/pattern divides an op by the pattern
// count.
func BenchmarkInsertionScan(b *testing.B) {
	pat := bench1288Patterns(b)
	cases := []struct {
		name  string
		rates func() *gtr.RateCategories
	}{
		{"CAT", func() *gtr.RateCategories {
			r := rng.New(5)
			perSite := make([]float64, pat.NumPatterns())
			for i := range perSite {
				perSite[i] = 0.25 + 2*r.Float64()
			}
			return gtr.ClusterCAT(perSite, 25)
		}},
		{"GAMMA", func() *gtr.RateCategories {
			rc, err := gtr.NewGamma(0.8, 4)
			if err != nil {
				b.Fatal(err)
			}
			return rc
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			pool := threads.NewPool(1, pat.NumPatterns())
			defer pool.Close()
			e, err := New(pat, gtr.Default(), tc.rates(), Config{Pool: pool})
			if err != nil {
				b.Fatal(err)
			}
			tr := tree.Random(pat.Names, rng.New(3))
			if err := e.AttachTree(tr); err != nil {
				b.Fatal(err)
			}
			// Prune the subtree hanging off the first internal edge.
			var root, attach int
			for _, ed := range tr.Edges() {
				if !tr.Nodes[ed.A].IsTip() && !tr.Nodes[ed.B].IsTip() {
					root, attach = ed.A, ed.B
					break
				}
			}
			p, err := tr.DanglingPrune(root, attach)
			if err != nil {
				b.Fatal(err)
			}
			e.InvalidateAll()
			cands := tr.RegraftCandidates(p, 4)
			for _, c := range cands { // warm every candidate's CLVs
				_ = e.EvaluateInsertion(root, p.Attach, c.A, c.B)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cands[i%len(cands)]
				_ = e.EvaluateInsertion(root, p.Attach, c.A, c.B)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pat.NumPatterns()), "ns/pattern")
		})
	}
}

// bench1288Alignment is the uncompressed form of the 1288-pattern
// workload, for partitioned compression.
func bench1288Alignment(b *testing.B) *msa.Alignment {
	b.Helper()
	r := rng.New(1288)
	letters := []byte("ACGT")
	a := &msa.Alignment{}
	nm := names(50)
	for i := 0; i < 50; i++ {
		a.Names = append(a.Names, nm[i])
		row := make([]msa.State, 1288)
		for j := range row {
			row[j] = msa.EncodeChar(letters[r.Intn(4)])
		}
		a.Seqs = append(a.Seqs, row)
	}
	return a
}

// BenchmarkNewviewPartitioned measures the partitioned newview hot path
// — the same full-tree descriptor walk as BenchmarkNewviewArena, over
// the same 1288 patterns, but split into 4 partitions with independent
// GTRCAT model instances. "balanced" gives every gene an equal share;
// "skewed" concentrates most of the axis in one gene with three narrow
// ones — the imbalance shape that defeats naive per-partition striping
// and that the weighted, partition-aligned stripes must absorb. Gated
// by benchdiff: the partition machinery (chunked kernels, per-partition
// matrix blocks, segmented tiles) must stay within noise of the
// single-partition walk.
func BenchmarkNewviewPartitioned(b *testing.B) {
	a := bench1288Alignment(b)
	shapes := []struct {
		name string
		cuts []int // column split points
	}{
		{"balanced", []int{322, 644, 966}},
		{"skewed", []int{40, 80, 120}}, // 3 narrow genes + one 1168-column gene
	}
	for _, shape := range shapes {
		var defs []msa.PartitionDef
		lo := 0
		for gi, cut := range append(shape.cuts, 1288) {
			defs = append(defs, msa.PartitionDef{
				ModelName: "DNA",
				Name:      "gene" + string(rune('0'+gi)),
				Ranges:    []msa.SiteRange{{Lo: lo, Hi: cut, Stride: 1}},
			})
			lo = cut
		}
		pat, err := msa.CompressPartitioned(a, defs)
		if err != nil {
			b.Fatal(err)
		}
		tr := tree.Random(pat.Names, rng.New(3))
		for _, workers := range []int{1, 4} {
			b.Run(shape.name+"/workers="+string(rune('0'+workers)), func(b *testing.B) {
				if workers > runtime.NumCPU() {
					b.Skipf("%d workers oversubscribe %d CPUs: timings would measure the scheduler", workers, runtime.NumCPU())
				}
				pool := threads.NewPoolPartitioned(workers, pat.Weights, pat.PartStarts(), 16)
				defer pool.Close()
				set := &gtr.PartitionSet{}
				r := rng.New(5)
				for _, pr := range pat.PartRanges() {
					perSite := make([]float64, pr.Len())
					for i := range perSite {
						perSite[i] = 0.25 + 2*r.Float64()
					}
					set.Models = append(set.Models, gtr.Default())
					set.Rates = append(set.Rates, gtr.ClusterCAT(perSite, 25))
				}
				e, err := NewPartitioned(pat, set, Config{Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.AttachTree(tr); err != nil {
					b.Fatal(err)
				}
				a := 0
				nb := tr.Nodes[0].Neighbors[0]
				slotA := e.slotOf(a, nb)
				slotB := e.slotOf(nb, a)
				_ = e.LogLikelihood() // warm allocation paths
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.InvalidateAll()
					e.refreshViews([2]int{a, slotA}, [2]int{nb, slotB})
				}
			})
		}
	}
}

// BenchmarkEvaluateArena measures the evaluate (virtual-root reduction)
// kernel alone over fresh CLVs — the other per-pattern loop the arena
// layout streams.
func BenchmarkEvaluateArena(b *testing.B) {
	pat := bench1288Patterns(b)
	tr := tree.Random(pat.Names, rng.New(3))
	pool := threads.NewPool(1, pat.NumPatterns())
	defer pool.Close()
	rc, err := gtr.NewGamma(0.8, 4)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(pat, gtr.Default(), rc, Config{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AttachTree(tr); err != nil {
		b.Fatal(err)
	}
	_ = e.LogLikelihood() // CLVs fresh from here on
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.LogLikelihood()
	}
}
