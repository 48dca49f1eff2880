package core

import (
	"fmt"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/parsimony"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/tree"
)

// This file wires the distributed fine grain into the analysis modes:
// the hybrid topology where -R ranks × -T threads serve ONE likelihood
// function (RAxML's _FINE_GRAIN_MPI path) instead of R independent
// coarse searches. The engine handed to each analysis is an ordinary
// likelihood.Engine whose Dispatcher is a finegrain.Pool, so the
// analysis code is byte-for-byte the single-process code — the grid is
// below the dispatcher contract.

// WithFineEngine builds a distributed R×t engine per the options and
// runs body on the master rank.
//
// With tr == nil the whole grid lives in this process: opts.Ranks
// serving goroutines over the in-proc channel transport — the default
// for tests and for single-node runs. A non-nil tr must be an accepted
// master transport (rank 0) whose remote ranks are already serving —
// the TCP path, where the cli has spawned worker processes.
func WithFineEngine(pat *msa.Patterns, opts Options, tr fabric.Transport, body func(eng *likelihood.Engine) error) error {
	opts = opts.withDefaults()
	set, err := buildPartitionSet(pat, opts)
	if err != nil {
		return err
	}
	run := func(eng *likelihood.Engine) error {
		if opts.EmpiricalFreqs {
			eng.EstimateEmpiricalFreqs()
		}
		return body(eng)
	}
	if tr == nil {
		return finegrain.Run(opts.Ranks, opts.Workers, pat, set, func(eng *likelihood.Engine, _ *finegrain.Pool) error {
			return run(eng)
		})
	}
	pool, err := finegrain.NewPool(tr, pat, set, opts.Workers)
	if err != nil {
		return err
	}
	defer pool.Close()
	eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
	if err != nil {
		return err
	}
	return run(eng)
}

// StartTree returns the stepwise-addition parsimony starting tree of
// one ML search drawn from parsRNG — the master-side half of a grid ML
// job, whose search then runs wherever the job is placed. The tree is
// built on a temporary full-axis crew of opts.Workers threads, exactly
// as in RunFineSearches.
//
// When Options.StartTrees and Options.StartTreeKey are set, the tree is
// looked up in (and on a miss, inserted into) the cache instead of
// being rebuilt. This is exact, not approximate: parsRNG is consumed
// only by stepwise addition, the search is deterministic in the start
// tree, and the cache stores a pristine Clone — so a search from a
// cache hit reproduces the cold run bit for bit.
func StartTree(pat *msa.Patterns, opts Options, parsRNG *rng.RNG) *tree.Tree {
	opts = opts.withDefaults()
	if opts.StartTrees != nil && opts.StartTreeKey != "" {
		if start, ok := opts.StartTrees.GetStartTree(opts.StartTreeKey); ok {
			return start
		}
	}
	parsPool := newPool(pat, opts.Workers)
	defer parsPool.Close()
	start := parsimony.New(pat, parsPool).StepwiseAddition(parsRNG)
	if opts.StartTrees != nil && opts.StartTreeKey != "" {
		opts.StartTrees.PutStartTree(opts.StartTreeKey, start.Clone())
	}
	return start
}

// EvaluateTreeFine is EvaluateTree (-f e) over the distributed fine
// grain: the fixed-topology optimization runs once, with its
// per-pattern kernels striped over opts.Ranks × opts.Workers workers.
func EvaluateTreeFine(pat *msa.Patterns, t *tree.Tree, opts Options, tr fabric.Transport) (*EvaluationResult, error) {
	if t.NumTaxa() != pat.NumTaxa() {
		return nil, fmt.Errorf("core: tree has %d taxa, alignment has %d", t.NumTaxa(), pat.NumTaxa())
	}
	var res *EvaluationResult
	err := WithFineEngine(pat, opts, tr, func(eng *likelihood.Engine) error {
		var err error
		res, err = evaluateOn(eng, t)
		return err
	})
	return res, err
}

// RunFineSearches is RunMultiSearch (-f d) over the distributed fine
// grain: the searches run *sequentially*, each one using the whole R×t
// grid — the complementary regime to the coarse mode's R concurrent
// searches. This is the right end of the paper's trade-off when one
// tree is wanted fast, or when a worker rank's memory cannot hold the
// full alignment's CLVs (ranks 1..R-1 hold only their stripes; the
// planning master still spans the full axis — see docs/hybrid-topology.md).
func RunFineSearches(pat *msa.Patterns, searches int, opts Options, tr fabric.Transport) (*MultiSearchResult, error) {
	if searches < 1 {
		return nil, fmt.Errorf("core: %d searches requested", searches)
	}
	opts = opts.withDefaults()
	start := time.Now()
	res := &MultiSearchResult{}
	err := WithFineEngine(pat, opts, tr, func(eng *likelihood.Engine) error {
		parsRNG := rng.ForRank(opts.SeedParsimony, 0)
		// Start trees are built master-side (Fitch kernels are not
		// distributed) on a full-axis crew of the master's own -T
		// threads; eng.ThreadPool() would fall back to a serial pool.
		parsPool := newPool(pat, opts.Workers)
		defer parsPool.Close()
		pars := parsimony.New(pat, parsPool)
		settings := search.Thorough()
		if opts.ThoroughSettings != nil {
			settings = *opts.ThoroughSettings
		}
		for i := 0; i < searches; i++ {
			startTree := pars.StepwiseAddition(parsRNG)
			sr, err := search.Run(eng, startTree, settings)
			if err != nil {
				return err
			}
			nw, err := tree.FormatNewick(sr.Tree, nil)
			if err != nil {
				return err
			}
			res.All = append(res.All, SearchOutcome{
				Rank: 0, Index: i,
				LogLikelihood: sr.LogLikelihood,
				Newick:        nw,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	res.Best = res.All[0]
	for _, o := range res.All[1:] {
		if o.LogLikelihood > res.Best.LogLikelihood {
			res.Best = o
		}
	}
	bt, err := tree.ParseNewick(res.Best.Newick, pat.Names)
	if err != nil {
		return nil, fmt.Errorf("core: reparsing winner: %v", err)
	}
	res.BestTree = bt
	return res, nil
}
