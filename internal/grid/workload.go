package grid

import (
	"fmt"
	"sort"
	"sync"

	"raxml/internal/bootstop"
	"raxml/internal/consensus"
	"raxml/internal/core"
	"raxml/internal/gridjob"
	"raxml/internal/msa"
	"raxml/internal/rapidbs"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/tree"
)

// Analysis describes a comprehensive run as a grid workload.
type Analysis struct {
	// Pat is the compressed alignment.
	Pat *msa.Patterns
	// Opts carries model, seeds and thread settings (core semantics).
	Opts core.Options
	// Starts is the number of independent ML searches (jobs ml/i).
	Starts int
	// Replicates is the bootstrap replicate total per round (jobs
	// bs/j). With Bootstop it is the per-round increment; rounds repeat
	// until the WC test converges or MaxReplicates is reached.
	Replicates int
	// Batch is the replicates per bs job (default 5): the unit of
	// coarse parallelism AND the stream length between stepwise
	// refreshes a checkpoint must reproduce.
	Batch int
	// Bootstop enables adaptive rounds under the WC test.
	Bootstop bool
	// MaxReplicates caps adaptive rounds (default 10×Replicates).
	MaxReplicates int
	// JobPrefix namespaces this analysis's job IDs ("<prefix>/ml/0").
	// Empty for one-shot runs; the server sets it to the run ID so
	// concurrent analyses sharing one fleet stay distinguishable in the
	// fleet trace and checkpoint store.
	JobPrefix string
	// StartTrees, when set with StartTreeKeyBase, caches parsimony
	// stepwise-addition starting trees across analyses — the warm-cache
	// path for repeat submissions of the same alignment (core.StartTree
	// documents the exactness argument).
	StartTrees core.StartTreeCache
	// StartTreeKeyBase keys this analysis's starting trees; it must
	// identify the alignment and the -p seed (e.g. "<alignhash>/p123").
	StartTreeKeyBase string
}

// jid prefixes a job ID with the analysis namespace.
func (a *Analysis) jid(s string) string {
	if a.JobPrefix == "" {
		return s
	}
	return a.JobPrefix + "/" + s
}

// seed streams: every job derives its RNGs from the analysis seeds and
// its own stable index, so results are independent of scheduling, lease
// shapes, and failures. The offsets keep the streams of different job
// kinds disjoint under rng.ForRank's rank stride.
const (
	mlSeedBase   = 0   // ml/i        -> ForRank(SeedParsimony, i)
	bsSeedBase   = 0   // bs/j        -> ForRank(SeedBootstrap, j)
	bsParsBase   = 500 // bs/j pars   -> ForRank(SeedParsimony, 500+j)
	bootstopBase = 900 // round check -> ForRank(SeedBootstrap, 900+round)
	maxBatchJobs = 400
)

// StartOutcome is one finished ML start.
type StartOutcome struct {
	Index         int
	Newick        string
	LogLikelihood float64
}

// Result accumulates the workload's outputs; valid after Grid.Run
// returns nil for the grid the workload was built into.
type Result struct {
	mu sync.Mutex

	// Starts are the ML search outcomes, by index.
	Starts []StartOutcome
	// Best is the highest-likelihood start (ties: lowest index).
	Best StartOutcome
	// BestSupports maps the best tree's edges to replicate support (%).
	BestSupports map[tree.Edge]int
	// BestAnnotated is the best tree with support values, Newick.
	BestAnnotated string
	// Replicates are all bootstrap replicates in (batch, stream) order.
	Replicates []*rapidbs.Replicate
	// ConsensusNewick is the greedy (MRE) consensus of the replicates.
	ConsensusNewick string
	// Converged and WCDistance report the final WC test (fixed-count
	// runs: the test still runs once, informationally).
	Converged  bool
	WCDistance float64
	// Rounds counts bootstrap rounds run.
	Rounds int
}

// replicateTrees returns the replicate topologies in order.
func (res *Result) replicateTrees() []*tree.Tree {
	ts := make([]*tree.Tree, len(res.Replicates))
	for i, r := range res.Replicates {
		ts[i] = r.Tree
	}
	return ts
}

// Build adds the analysis DAG to g and returns its result sink. The
// graph: Starts ml jobs and round-0 bs jobs run with no dependencies;
// each round ends in a bootstop job depending on every bs job so far,
// which either adds the next round or (converged / capped / fixed
// count) adds the consensus job, which also depends on the ml jobs.
func (a *Analysis) Build(g *Grid) (*Result, error) {
	if a.Starts < 0 || a.Replicates < 0 {
		return nil, fmt.Errorf("grid: negative workload (%d starts, %d replicates)", a.Starts, a.Replicates)
	}
	if a.Batch < 1 {
		a.Batch = 5
	}
	if a.MaxReplicates < 1 {
		a.MaxReplicates = 10 * a.Replicates
	}
	res := &Result{}
	var mlIDs []string
	for i := 0; i < a.Starts; i++ {
		id := a.jid(fmt.Sprintf("ml/%d", i))
		mlIDs = append(mlIDs, id)
		if err := g.Add(a.mlJob(id, i, res)); err != nil {
			return nil, err
		}
	}
	bsIDs, nextBatch, err := a.addRound(g, res, 0, a.Replicates)
	if err != nil {
		return nil, err
	}
	if err := g.Add(a.bootstopJob(res, mlIDs, bsIDs, 0, nextBatch)); err != nil {
		return nil, err
	}
	return res, nil
}

// mlJob searches from one stepwise-addition start. The start tree is
// built (or found in the warm cache) on the master; the search runs
// wherever Elastic places it. No checkpoint: the job is one replicate,
// and a retry repeats the search from the same start tree.
func (a *Analysis) mlJob(id string, index int, res *Result) *Job {
	return &Job{
		ID: id,
		Run: func(ctx *JobContext) error {
			if ctx.Canceled() {
				return ErrCanceled
			}
			opts := a.Opts
			if a.StartTrees != nil && a.StartTreeKeyBase != "" {
				opts.StartTrees = a.StartTrees
				opts.StartTreeKey = fmt.Sprintf("%s/ml/%d", a.StartTreeKeyBase, index)
			}
			sp := a.spec(gridjob.ML, a.Opts.ThoroughSettings, search.Thorough())
			sp.Start = core.StartTree(a.Pat, opts, rng.ForRank(a.Opts.SeedParsimony, mlSeedBase+index))
			out, err := ctx.Elastic(a.Pat, func() (*gridjob.Spec, error) { return sp, nil }, nil)
			if err != nil {
				return err
			}
			res.mu.Lock()
			res.Starts = append(res.Starts, StartOutcome{Index: index, Newick: out.Newick, LogLikelihood: out.LogLikelihood})
			res.mu.Unlock()
			ctx.g.cfg.Tracer.Event("ml-done", ctx.ID(), map[string]any{
				"index": index, "lnl": out.LogLikelihood, "dispatches": out.Dispatches,
			})
			return nil
		},
	}
}

// addRound adds the bs jobs covering `count` more replicates starting
// at batch index `firstBatch`, returning their ids and the next batch
// index.
func (a *Analysis) addRound(g *Grid, res *Result, firstBatch, count int) ([]string, int, error) {
	var ids []string
	b := firstBatch
	for remaining := count; remaining > 0; b++ {
		if b >= maxBatchJobs {
			return nil, b, fmt.Errorf("grid: replicate workload exceeds %d batches", maxBatchJobs)
		}
		m := a.Batch
		if m > remaining {
			m = remaining
		}
		id := a.jid(fmt.Sprintf("bs/%d", b))
		ids = append(ids, id)
		if err := g.Add(a.bsJob(id, b, m, res)); err != nil {
			return nil, b, err
		}
		remaining -= m
	}
	return ids, b, nil
}

// bsJob runs one independent rapid-bootstrap stream of m replicates,
// checkpointing at every replicate boundary. Each batch is its own
// stream (own seed pair), so batches parallelize like the paper's
// coarse ranks while replicates inside a batch chain trees exactly as
// rapid bootstrapping requires. Every attempt starts from the job's
// last checkpoint, so a retry after a rank death resumes the stream.
func (a *Analysis) bsJob(id string, batch, m int, res *Result) *Job {
	return &Job{
		ID: id,
		Run: func(ctx *JobContext) error {
			if ctx.Canceled() {
				return ErrCanceled
			}
			var cp *BootstrapCheckpoint
			spec := func() (*gridjob.Spec, error) {
				sp := a.spec(gridjob.Bootstrap, a.Opts.BootstrapSettings, search.Bootstrap())
				sp.Replicates = m
				cp = &BootstrapCheckpoint{
					BsState:   rng.ForRank(a.Opts.SeedBootstrap, bsSeedBase+batch).State(),
					ParsState: rng.ForRank(a.Opts.SeedParsimony, bsParsBase+batch).State(),
				}
				if raw := ctx.Load(); raw != nil {
					var err error
					if cp, err = DecodeBootstrapCheckpoint(raw); err != nil {
						return nil, err
					}
					if cp.PrevTree != "" {
						if sp.Prev, err = tree.ParseNewick(cp.PrevTree, a.Pat.Names); err != nil {
							return nil, err
						}
					}
				}
				sp.Checkpoint = *cp
				return sp, nil
			}
			out, err := ctx.Elastic(a.Pat, spec, func(next *BootstrapCheckpoint) error {
				cp = next
				ctx.Save(cp.Encode())
				ctx.g.cfg.Tracer.Event("replicate", ctx.ID(), map[string]any{
					"index": batch*a.Batch + cp.Done - 1, "lnl": cp.LnLs[len(cp.LnLs)-1],
				})
				if ctx.Canceled() {
					return ErrCanceled
				}
				return nil
			})
			if err != nil {
				return err
			}
			ctx.g.cfg.Tracer.Event("bs-done", ctx.ID(), map[string]any{
				"replicates": len(cp.Trees), "dispatches": out.Dispatches,
			})
			reps := make([]*rapidbs.Replicate, len(cp.Trees))
			for i, nw := range cp.Trees {
				t, err := tree.ParseNewick(nw, a.Pat.Names)
				if err != nil {
					return err
				}
				reps[i] = &rapidbs.Replicate{Index: batch*a.Batch + i, Tree: t, LogLikelihood: cp.LnLs[i]}
			}
			res.mu.Lock()
			res.Replicates = append(res.Replicates, reps...)
			res.mu.Unlock()
			return nil
		},
	}
}

// bootstopJob closes a round: it runs the WC convergence test over all
// replicates so far and either extends the DAG with the next round (+
// its own successor) or schedules the consensus join.
func (a *Analysis) bootstopJob(res *Result, mlIDs, bsIDs []string, round, nextBatch int) *Job {
	deps := append([]string(nil), bsIDs...)
	return &Job{
		ID:   a.jid(fmt.Sprintf("bootstop/%d", round)),
		Deps: deps,
		Run: func(ctx *JobContext) error {
			res.mu.Lock()
			sort.Slice(res.Replicates, func(i, j int) bool { return res.Replicates[i].Index < res.Replicates[j].Index })
			trees := res.replicateTrees()
			total := len(trees)
			res.Rounds = round + 1
			res.mu.Unlock()
			ok, dist, err := bootstop.Converged(trees, bootstop.DefaultCriterion(), rng.ForRank(a.Opts.SeedBootstrap, bootstopBase+round))
			if err != nil {
				return err
			}
			res.mu.Lock()
			res.Converged, res.WCDistance = ok, dist
			res.mu.Unlock()
			ctx.g.cfg.Tracer.Event("bootstop", ctx.ID(), map[string]any{
				"round": round, "replicates": total, "converged": ok, "wc": dist,
			})
			if a.Bootstop && !ok && total < a.MaxReplicates {
				more := a.Replicates
				if total+more > a.MaxReplicates {
					more = a.MaxReplicates - total
				}
				newIDs, next, err := a.addRound(ctx.g, res, nextBatch, more)
				if err != nil {
					return err
				}
				return ctx.Add(a.bootstopJob(res, mlIDs, newIDs, round+1, next))
			}
			return ctx.Add(a.consensusJob(res, append(mlIDs, ctx.ID())))
		},
	}
}

// consensusJob is the DAG sink: greedy (MRE) consensus of all
// replicates, plus replicate support mapped onto the best ML start.
func (a *Analysis) consensusJob(res *Result, deps []string) *Job {
	return &Job{
		ID:   a.jid("consensus"),
		Deps: deps,
		Run: func(ctx *JobContext) error {
			res.mu.Lock()
			defer res.mu.Unlock()
			sort.Slice(res.Starts, func(i, j int) bool { return res.Starts[i].Index < res.Starts[j].Index })
			if len(res.Replicates) > 0 {
				cons, err := consensus.Greedy(res.replicateTrees())
				if err != nil {
					return err
				}
				res.ConsensusNewick = cons.Newick()
			}
			if len(res.Starts) == 0 {
				return nil
			}
			res.Best = res.Starts[0]
			for _, s := range res.Starts[1:] {
				if s.LogLikelihood > res.Best.LogLikelihood {
					res.Best = s
				}
			}
			best, err := tree.ParseNewick(res.Best.Newick, a.Pat.Names)
			if err != nil {
				return err
			}
			if len(res.Replicates) > 0 {
				res.BestSupports = rapidbs.SupportCounts(best, res.Replicates)
				if res.BestAnnotated, err = tree.FormatNewick(best, res.BestSupports); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// spec fills the model and search fields every job kind shares:
// settings is the preset override, def the default preset.
func (a *Analysis) spec(kind gridjob.Kind, settings *search.Settings, def search.Settings) *gridjob.Spec {
	sp := &gridjob.Spec{
		Kind:           kind,
		Gamma:          a.Opts.Model == core.GTRGAMMA,
		Alpha:          a.Opts.Alpha,
		EmpiricalFreqs: a.Opts.EmpiricalFreqs,
		Settings:       def,
	}
	if sp.Alpha <= 0 {
		sp.Alpha = 1.0 // core.Options' default Γ shape
	}
	if settings != nil {
		sp.Settings = *settings
	}
	return sp
}
