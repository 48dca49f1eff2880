package core

import (
	"fmt"
	"sort"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/msa"
	"raxml/internal/rapidbs"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/tree"
)

// ModelType selects the rate-heterogeneity treatment of an analysis.
type ModelType int

const (
	// GTRCAT is RAxML's per-site rate-category approximation — the model
	// of all benchmark runs in the paper (-m GTRCAT).
	GTRCAT ModelType = iota
	// GTRGAMMA is the 4-category discrete Γ model.
	GTRGAMMA
)

func (m ModelType) String() string {
	if m == GTRGAMMA {
		return "GTRGAMMA"
	}
	return "GTRCAT"
}

// StartTreeCache stores parsimony stepwise-addition starting trees
// keyed by alignment/seed identity — the analysis server's warm cache.
// GetStartTree must return a tree the caller owns outright (searches
// mutate their start tree in place, so implementations clone on both
// Put and Get).
type StartTreeCache interface {
	GetStartTree(key string) (*tree.Tree, bool)
	PutStartTree(key string, t *tree.Tree)
}

// Options configures a comprehensive analysis, mirroring the RAxML
// command line of the paper's runs:
// -m GTRCAT -N <Bootstraps> -p <SeedParsimony> -x <SeedBootstrap> -f a.
type Options struct {
	// Bootstraps is the specified bootstrap count (-N). Each rank runs
	// ceil(Bootstraps/Ranks); see Schedule.
	Bootstraps int
	// Ranks is the number of coarse-grained processes (MPI world size).
	Ranks int
	// Workers is the number of fine-grained workers (Pthreads) per rank.
	Workers int
	// SeedParsimony seeds starting-tree randomization (-p).
	SeedParsimony int64
	// SeedBootstrap seeds column resampling (-x).
	SeedBootstrap int64
	// Model selects GTRCAT (default) or GTRGAMMA.
	Model ModelType
	// Alpha is the initial Γ shape for GTRGAMMA (default 1.0).
	Alpha float64
	// EmpiricalFreqs estimates base frequencies from the data (default
	// behaviour of RAxML) when true.
	EmpiricalFreqs bool

	// Search presets; zero values select the package search defaults.
	FastSettings, SlowSettings, ThoroughSettings *search.Settings
	// BootstrapSettings overrides the per-replicate search preset.
	BootstrapSettings *search.Settings

	// StartTrees, with StartTreeKey, caches the stepwise-addition
	// parsimony starting tree across runs (the analysis server's warm
	// cache for repeat submissions of one alignment). See StartTree.
	StartTrees StartTreeCache
	// StartTreeKey names this search's starting tree in StartTrees; it
	// must pin everything stepwise addition depends on: the alignment
	// content and the -p seed stream (e.g. "<alignhash>/p123/ml/0").
	StartTreeKey string

	// GlobalFastSort is the Section-2.2 ablation: instead of each rank
	// sorting only its own fast searches (the hybrid code's
	// communication-free choice), all fast results are gathered and
	// sorted globally, and rank r continues with the globally ranked
	// trees r, r+p, r+2p, … — what a communicating implementation would
	// do. Default false reproduces the paper's code.
	GlobalFastSort bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Bootstraps < 1 {
		out.Bootstraps = 100
	}
	if out.Ranks < 1 {
		out.Ranks = 1
	}
	if out.Workers < 1 {
		out.Workers = 1
	}
	if out.SeedParsimony == 0 {
		out.SeedParsimony = 12345
	}
	if out.SeedBootstrap == 0 {
		out.SeedBootstrap = 12345
	}
	if out.Alpha <= 0 {
		out.Alpha = 1.0
	}
	return out
}

// StageTimes records per-stage wall-clock durations of one rank. The
// paper's Figs. 3–4 plot exactly these components (for the last rank to
// finish each stage).
type StageTimes struct {
	Bootstrap, Fast, Slow, Thorough time.Duration
}

// Total returns the summed stage time.
func (s StageTimes) Total() time.Duration {
	return s.Bootstrap + s.Fast + s.Slow + s.Thorough
}

// RankReport describes one rank's work in a finished analysis.
type RankReport struct {
	// Rank is the rank index.
	Rank int
	// Sched is the work partition the rank executed.
	Sched Schedule
	// Times are the rank's stage durations.
	Times StageTimes
	// FastScores are the rank's fast-search log-likelihoods, sorted
	// descending (the local sort of Section 2.2).
	FastScores []float64
	// SlowScores are the rank's slow-search log-likelihoods.
	SlowScores []float64
	// ThoroughScore is the rank's final thorough-search log-likelihood.
	ThoroughScore float64
	// Dispatches counts the rank's fine-grained pool jobs (barrier
	// crossings) over the whole analysis. The traversal-descriptor
	// engine keeps this proportional to traversals rather than to
	// nodes×traversals — the synchronization overhead the paper's
	// Pthreads layer amortizes.
	Dispatches int64

	// bootstrapNewicks stashes the rank's replicate topologies for the
	// support gather; cleared before the report is published.
	bootstrapNewicks []string
}

// Result is the outcome of a comprehensive analysis.
type Result struct {
	// BestTree is the winning thorough-search topology with optimized
	// branch lengths.
	BestTree *tree.Tree
	// BestLogLikelihood is its score.
	BestLogLikelihood float64
	// BestRank is the rank that produced it.
	BestRank int
	// Support maps the best tree's internal edges to bootstrap support
	// percentages computed over all ranks' replicates.
	Support map[tree.Edge]int
	// TotalBootstraps counts replicates actually performed (Table 2:
	// may exceed the specified count).
	TotalBootstraps int
	// Ranks holds one report per rank.
	Ranks []RankReport
	// Elapsed is the whole analysis wall time.
	Elapsed time.Duration
	// Options echoes the effective configuration.
	Options Options
}

// Run executes a comprehensive analysis: Options.Ranks coarse-grained
// ranks, each with Options.Workers fine-grained workers. Ranks == 1
// reproduces the serial algorithm exactly (the local fast-search sort is
// then the global sort, and exactly one thorough search runs).
func Run(pat *msa.Patterns, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if pat.NumTaxa() < 4 {
		return nil, fmt.Errorf("core: %d taxa, need >= 4", pat.NumTaxa())
	}
	sched := NewSchedule(opts.Ranks, opts.Bootstraps)
	start := time.Now()

	reports := make([]RankReport, opts.Ranks)
	bestNewicks := make([]string, opts.Ranks)
	supports := make([]map[tree.Edge]int, opts.Ranks)
	winnerRank := -1
	winnerScore := 0.0

	err := fabric.Run(opts.Ranks, func(c *fabric.Comm) error {
		rank := c.Rank()
		rep, bestTree, err := runRank(pat, opts, sched, rank, c)
		if err != nil {
			return err
		}
		reports[rank] = *rep

		// Select the winner: MPI_MAXLOC over thorough scores, then the
		// winner broadcasts its tree (the paper's MPI_Bcast).
		bestLL, loc, err := c.AllreduceMaxLoc(rep.ThoroughScore)
		if err != nil {
			return err
		}
		nw, err := tree.FormatNewick(bestTree, nil)
		if err != nil {
			return err
		}
		winnerNewick, err := fabric.Bcast(c, loc, nw)
		if err != nil {
			return err
		}

		// Support mapping: every rank contributes its local bootstrap
		// topologies; the winner tree's bipartitions are scored against
		// the union (gathered deterministically in rank order).
		localBS := rep.bootstrapNewicks
		allBS, err := fabric.Gather(c, localBS)
		if err != nil {
			return err
		}
		winTree, err := tree.ParseNewick(winnerNewick, pat.Names)
		if err != nil {
			return err
		}
		supports[rank] = supportFromNewicks(winTree, allBS, pat.Names)
		bestNewicks[rank] = winnerNewick
		if rank == loc {
			winnerRank = loc
			winnerScore = bestLL
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	bestTree, err := tree.ParseNewick(bestNewicks[0], pat.Names)
	if err != nil {
		return nil, fmt.Errorf("core: reparsing winner tree: %v", err)
	}
	res := &Result{
		BestTree:          bestTree,
		BestLogLikelihood: winnerScore,
		BestRank:          winnerRank,
		Support:           supports[0],
		TotalBootstraps:   sched.TotalBootstraps(),
		Ranks:             reports,
		Elapsed:           time.Since(start),
		Options:           opts,
	}
	// Strip the internal newick stash from the public reports.
	for i := range res.Ranks {
		res.Ranks[i].bootstrapNewicks = nil
	}
	return res, nil
}

// runRank executes one rank's share of the comprehensive analysis. The
// communicator is used only for the Section-2.2 global-sort ablation;
// the paper's algorithm needs no communication here.
func runRank(pat *msa.Patterns, opts Options, sched Schedule, rank int, c *fabric.Comm) (*RankReport, *tree.Tree, error) {
	// Section 2.4: rank r draws from seed + 10000·r on both streams.
	parsRNG := rng.ForRank(opts.SeedParsimony, rank)
	bsRNG := rng.ForRank(opts.SeedBootstrap, rank)

	// One pool and one engine serve the rank's whole analysis: the
	// worker crew, the CLV arena and the traversal-descriptor buffer
	// are all reused across every bootstrap replicate and search stage
	// (the persistent-crew structure of the paper's Pthreads layer).
	pool := newPool(pat, opts.Workers)
	defer pool.Close()
	eng, err := newEngine(pat, opts, pool)
	if err != nil {
		return nil, nil, err
	}

	rep := &RankReport{Rank: rank, Sched: sched}

	// ----- Stage 1: rapid bootstraps -----
	t0 := time.Now()
	runner := rapidbs.NewRunner(eng)
	if opts.BootstrapSettings != nil {
		runner.SetSearchSettings(*opts.BootstrapSettings)
	}
	reps, err := runner.Run(sched.BootstrapsPerProcess, bsRNG, parsRNG)
	if err != nil {
		return nil, nil, err
	}
	rep.Times.Bootstrap = time.Since(t0)
	rep.bootstrapNewicks = make([]string, len(reps))
	for i, r := range reps {
		nw, err := tree.FormatNewick(r.Tree, nil)
		if err != nil {
			return nil, nil, err
		}
		rep.bootstrapNewicks[i] = nw
	}

	// ----- Stage 2: fast ML searches on every 5th bootstrap tree -----
	t0 = time.Now()
	fastSettings := search.Fast()
	if opts.FastSettings != nil {
		fastSettings = *opts.FastSettings
	}
	starts := rapidbs.EveryFifth(reps)
	if len(starts) != sched.FastPerProcess {
		return nil, nil, fmt.Errorf("core: rank %d: %d fast starts, schedule says %d",
			rank, len(starts), sched.FastPerProcess)
	}
	fast := make([]scored, 0, len(starts))
	for _, st := range starts {
		r, err := search.Run(eng, st, fastSettings)
		if err != nil {
			return nil, nil, err
		}
		fast = append(fast, scored{r.LogLikelihood, r.Tree.Clone()})
		rep.FastScores = append(rep.FastScores, r.LogLikelihood)
	}
	// Section 2.2: each rank sorts only its own fast searches.
	sort.Slice(fast, func(i, j int) bool { return fast[i].ll > fast[j].ll })
	sort.Sort(sort.Reverse(sort.Float64Slice(rep.FastScores)))
	rep.Times.Fast = time.Since(t0)

	// ----- Stage 3: slow searches on the best fast trees -----
	t0 = time.Now()
	slowSettings := search.Slow()
	if opts.SlowSettings != nil {
		slowSettings = *opts.SlowSettings
	}
	nSlow := sched.SlowPerProcess
	if nSlow > len(fast) {
		nSlow = len(fast)
	}
	slowStarts, err := selectSlowStarts(pat, opts, rank, nSlow, fast, c)
	if err != nil {
		return nil, nil, err
	}
	slow := make([]scored, 0, len(slowStarts))
	for _, st := range slowStarts {
		r, err := search.Run(eng, st, slowSettings)
		if err != nil {
			return nil, nil, err
		}
		slow = append(slow, scored{r.LogLikelihood, r.Tree.Clone()})
		rep.SlowScores = append(rep.SlowScores, r.LogLikelihood)
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].ll > slow[j].ll })
	rep.Times.Slow = time.Since(t0)

	// ----- Stage 4: one thorough search from the local best slow tree
	// (Section 2.1: p thorough searches instead of one) -----
	t0 = time.Now()
	thoroughSettings := search.Thorough()
	if opts.ThoroughSettings != nil {
		thoroughSettings = *opts.ThoroughSettings
	}
	r, err := search.Run(eng, slow[0].tree.Clone(), thoroughSettings)
	if err != nil {
		return nil, nil, err
	}
	rep.ThoroughScore = r.LogLikelihood
	rep.Times.Thorough = time.Since(t0)
	rep.Dispatches = pool.Dispatches()
	return rep, r.Tree, nil
}

// scored pairs a search result with its log-likelihood.
type scored struct {
	ll   float64
	tree *tree.Tree
}

// fastEntry is one fast-search result in transit during the global-sort
// ablation's gather.
type fastEntry struct {
	LL          float64
	Rank, Index int
	Newick      string
}

// selectSlowStarts picks the starting trees of the slow-search stage.
// Default (the paper's hybrid code): the rank's own best fast trees,
// already sorted. With Options.GlobalFastSort: gather every rank's fast
// results, sort globally, and let rank r take the globally ranked trees
// r, r+p, r+2p, … — the communicating variant the paper contrasts in
// Section 2.2.
func selectSlowStarts(pat *msa.Patterns, opts Options, rank, nSlow int, fast []scored, c *fabric.Comm) ([]*tree.Tree, error) {
	if !opts.GlobalFastSort {
		out := make([]*tree.Tree, 0, nSlow)
		for i := 0; i < nSlow && i < len(fast); i++ {
			out = append(out, fast[i].tree.Clone())
		}
		return out, nil
	}
	local := make([]fastEntry, len(fast))
	for i, f := range fast {
		nw, err := tree.FormatNewick(f.tree, nil)
		if err != nil {
			return nil, err
		}
		local[i] = fastEntry{LL: f.ll, Rank: rank, Index: i, Newick: nw}
	}
	gathered, err := fabric.Gather(c, local)
	if err != nil {
		return nil, err
	}
	var flat []fastEntry
	for _, rankEntries := range gathered {
		flat = append(flat, rankEntries...)
	}
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].LL != flat[j].LL {
			return flat[i].LL > flat[j].LL
		}
		if flat[i].Rank != flat[j].Rank {
			return flat[i].Rank < flat[j].Rank
		}
		return flat[i].Index < flat[j].Index
	})
	out := make([]*tree.Tree, 0, nSlow)
	for i := rank; i < len(flat) && len(out) < nSlow; i += opts.Ranks {
		t, err := tree.ParseNewick(flat[i].Newick, pat.Names)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	// Degenerate fallback: fewer global trees than this rank's share.
	for len(out) < nSlow && len(fast) > 0 {
		out = append(out, fast[0].tree.Clone())
	}
	return out, nil
}

// bootstrapNewicks is stashed on RankReport during the run for the
// support gather, then cleared before the report is returned.
func supportFromNewicks(ref *tree.Tree, allBS [][]string, taxa []string) map[tree.Edge]int {
	total := 0
	counts := make(map[string]int)
	for _, rankTrees := range allBS {
		for _, nw := range rankTrees {
			t, err := tree.ParseNewick(nw, taxa)
			if err != nil {
				continue
			}
			total++
			for key := range t.BipartitionSet() {
				counts[key]++
			}
		}
	}
	out := make(map[tree.Edge]int)
	if total == 0 {
		return out
	}
	for e, bp := range ref.Bipartitions() {
		out[e] = (counts[bp.Key()]*100 + total/2) / total
	}
	return out
}
