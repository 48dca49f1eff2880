package main

import (
	"slices"
	"time"

	"raxml/internal/core"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// layerUnits lists every per-layer metric a traced run reports, with
// its unit. A metric that does not apply to a workload (the wire on
// fa-ranks, the core stages on serve-tcp) reads 0.
var layerUnits = map[string]string{
	"core.bootstrap_s":                  "s",
	"core.fast_s":                       "s",
	"core.slow_s":                       "s",
	"core.thorough_s":                   "s",
	"core.rank_skew_s":                  "s",
	"threads.dispatches_per_run":        "count",
	"threads.post_us.w1":                "us",
	"threads.post_us.w2":                "us",
	"threads.w2_speedup":                "ratio",
	"likelihood.traversal_ms":           "ms",
	"likelihood.branch_opt_ms":          "ms",
	"msa.compress_ms":                   "ms",
	"fabric.frames_per_run":             "count",
	"fabric.bytes_per_run":              "bytes",
	"fabric.send_s_per_run":             "s",
	"fabric.recv_wait_s_per_run":        "s",
	"finegrain.worker_busy_s_per_run":   "s",
	"finegrain.wire_overhead_s_per_run": "s",
	"grid.jobs_per_run":                 "count",
	"grid.job_busy_s_per_run":           "s",
	"grid.local_jobs_ratio":             "ratio",
	"grid.restripes":                    "count",
	"server.submit_ms":                  "ms",
	"server.queue_wait_s":               "s",
	"server.fetch_ms":                   "ms",
	"server.cache_hit_ratio":            "ratio",
	"go.alloc_mb_per_run":               "MB",
	"go.gc_pause_ms_per_run":            "ms",
	"trace.overhead_ratio":              "ratio",
	"trace.accounted_ratio":             "ratio",
	"scaling.serial_s":                  "s",
	"scaling.efficiency":                "ratio",
}

// fillLayers sets every per-layer metric the workload did not report to
// 0, so each traced run reports the same set.
func fillLayers(rep *report) {
	for name, unit := range layerUnits {
		if _, ok := rep.layer[name]; !ok {
			rep.setLayer(name, 0, unit)
		}
	}
}

// faLayers derives the core and threads metrics of the traced analyses
// and runs the engine probes on dataset 0 and its final best tree.
func faLayers(rep *report, ins []faInput, traced []faSample, untracedP50 float64) error {
	var boot, fast, slow, thor, skew, disp []float64
	var best *tree.Tree
	for _, s := range traced {
		if s.err != nil {
			continue
		}
		var mx core.StageTimes
		lo, hi := time.Duration(1<<62), time.Duration(0)
		var d int64
		for _, rk := range s.res.Ranks {
			mx.Bootstrap = max(mx.Bootstrap, rk.Times.Bootstrap)
			mx.Fast = max(mx.Fast, rk.Times.Fast)
			mx.Slow = max(mx.Slow, rk.Times.Slow)
			mx.Thorough = max(mx.Thorough, rk.Times.Thorough)
			lo, hi = min(lo, rk.Times.Total()), max(hi, rk.Times.Total())
			d += rk.Dispatches
		}
		boot = append(boot, mx.Bootstrap.Seconds())
		fast = append(fast, mx.Fast.Seconds())
		slow = append(slow, mx.Slow.Seconds())
		thor = append(thor, mx.Thorough.Seconds())
		skew = append(skew, (hi - lo).Seconds())
		disp = append(disp, float64(d))
		if s.dataset == 0 {
			best = s.res.BestTree
		}
	}
	rep.setLayer("core.bootstrap_s", median(boot), "s")
	rep.setLayer("core.fast_s", median(fast), "s")
	rep.setLayer("core.slow_s", median(slow), "s")
	rep.setLayer("core.thorough_s", median(thor), "s")
	rep.setLayer("core.rank_skew_s", median(skew), "s")
	rep.setLayer("threads.dispatches_per_run", median(disp), "count")
	rep.setLayer("trace.overhead_ratio", median(sampleWalls(traced))/untracedP50, "ratio")
	rep.setLayer("trace.accounted_ratio", accountedRatio(rep.spans, "core.Run"), "ratio")
	if best == nil {
		return nil
	}
	return probeLayers(rep, ins[0], best)
}

// accountedRatio is the median, over root spans named root, of the
// share of the span its children cover. A child named in expand counts
// only where its own children cover it, so time it spends outside every
// measured call below it stays unaccounted.
func accountedRatio(spans []span, root string, expand ...string) float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var rs []float64
	for _, s := range spans {
		if s.Name != root || s.dur() <= 0 {
			continue
		}
		var cover []span
		for _, c := range children[s.ID] {
			if !slices.Contains(expand, c.Name) {
				cover = append(cover, c)
				continue
			}
			for _, g := range children[c.ID] {
				g.Start, g.End = later(g.Start, c.Start), earlier(g.End, c.End)
				cover = append(cover, g)
			}
		}
		rs = append(rs, covered(s.Start, s.End, cover).Seconds()/s.dur().Seconds())
	}
	return median(rs)
}

// timingDispatcher wraps a threads.Pool and times each Post: one
// barrier crossing, from the master's post until the crew has finished.
type timingDispatcher struct {
	*threads.Pool
	posts  int64
	postNs int64
}

func (d *timingDispatcher) Post(r threads.JobRunner, code threads.JobCode) {
	t0 := time.Now()
	d.Pool.Post(r, code)
	d.postNs += int64(time.Since(t0))
	d.posts++
}

// probeEngine builds a GTRCAT engine like an analysis rank's, over a
// timing dispatcher with the given worker count, with t attached.
func probeEngine(pat *msa.Patterns, workers int, t *tree.Tree) (*likelihood.Engine, *timingDispatcher, error) {
	d := &timingDispatcher{Pool: threads.NewPool(workers, pat.NumPatterns())}
	set := gtr.NewPartitionSet(pat.NumParts())
	for i, pr := range pat.PartRanges() {
		set.Rates[i] = gtr.NewUniform(pr.Len())
	}
	eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: d})
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	eng.EstimateEmpiricalFreqs()
	if err := eng.AttachTree(t.Clone()); err != nil {
		d.Close()
		return nil, nil, err
	}
	return eng, d, nil
}

// repeatTimed runs setup (untimed, may be nil) and f until budget has
// passed, at least minReps times, and returns f's median duration in
// milliseconds.
func repeatTimed(budget time.Duration, minReps int, setup, f func()) float64 {
	var ms []float64
	start := time.Now()
	for len(ms) < minReps || time.Since(start) < budget {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		f()
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}

// probeLayers times the likelihood, threads and msa layers directly on
// the workload's alignment and a final best tree of it.
func probeLayers(rep *report, in faInput, best *tree.Tree) error {
	parsed, err := msa.Sniff(in.text)
	if err != nil {
		return err
	}
	rep.setLayer("msa.compress_ms", repeatTimed(200*time.Millisecond, 5, nil, func() { _, _ = msa.Compress(parsed) }), "ms")

	postUS := map[int]float64{}
	for _, w := range []int{1, 2} {
		eng, d, err := probeEngine(in.pat, w, best)
		if err != nil {
			return err
		}
		d.posts, d.postNs = 0, 0
		trav := repeatTimed(300*time.Millisecond, 10, nil, func() {
			eng.InvalidateAll()
			eng.LogLikelihood()
		})
		postUS[w] = float64(d.postNs) / float64(max(d.posts, 1)) / 1e3
		if w == 1 {
			rep.setLayer("likelihood.traversal_ms", trav, "ms")
			rep.setLayer("likelihood.branch_opt_ms", repeatTimed(300*time.Millisecond, 5,
				func() { _ = eng.AttachTree(best.Clone()) }, // attached once already, cannot fail
				func() { eng.OptimizeAllBranches(1, 0.01) }), "ms")
		}
		d.Close()
	}
	rep.setLayer("threads.post_us.w1", postUS[1], "us")
	rep.setLayer("threads.post_us.w2", postUS[2], "us")
	rep.setLayer("threads.w2_speedup", postUS[1]/postUS[2], "ratio")
	return nil
}
