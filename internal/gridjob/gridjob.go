// Package gridjob is the body of one coarse grid job — an ML search
// from a given starting tree, or one rapid-bootstrap batch stream — and
// the codec that ships such a job whole to a leased worker rank.
//
// This is the paper's coarse grain: an MPI rank takes whole searches
// and bootstrap replicates, and its Pthreads take the fine grain inside
// them. Run executes a job on a local thread crew of Spec.Threads
// workers. The grid master calls it for a job it runs itself, and a
// grid worker calls it for a job it was shipped (finegrain's TagRunJob
// session), so a remote job computes exactly what the master-local job
// computes: same code, same inputs, same reduction order.
//
// Inputs that cross the wire do so exactly: patterns with their column
// map, trees in tree's exact encoding (node ids, neighbor-slot order,
// float64 bits), RNG stream positions as raw states.
package gridjob

import (
	"fmt"
	"time"

	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rapidbs"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// Kind selects the job body.
type Kind uint8

const (
	// ML is one thorough ML search from Spec.Start.
	ML Kind = 1 + iota
	// Bootstrap is one rapid-bootstrap batch stream of Spec.Replicates
	// replicates, resumable at any replicate boundary.
	Bootstrap
)

// Spec is everything a job attempt needs besides the patterns.
type Spec struct {
	Kind Kind
	// Threads is t: the size of the job's thread crew.
	Threads int
	// Gamma selects GTRGAMMA (4 categories, initial shape Alpha); false
	// selects GTRCAT.
	Gamma bool
	Alpha float64
	// EmpiricalFreqs estimates base frequencies from the data.
	EmpiricalFreqs bool
	// Settings is the search preset: the thorough search of an ML job,
	// the per-replicate search of a bootstrap batch.
	Settings search.Settings
	// Progress is the keepalive period of a remote run: the worker sends
	// a progress frame this often while it computes (0: never). The
	// master sets it from its silence bound; Run ignores it.
	Progress time.Duration

	// Start is an ML job's starting tree. The master builds it (and
	// caches it); Run searches a clone.
	Start *tree.Tree

	// Replicates is a bootstrap batch's stream length.
	Replicates int
	// Checkpoint is where the batch resumes: Done finished replicates
	// and the RNG stream positions after them (for a fresh batch, Done
	// 0 and the streams' seed states). Run produces replicates
	// Done..Replicates-1. Its PrevTree Newick is not shipped; Prev
	// carries the reuse-chain tree exactly.
	Checkpoint Checkpoint
	// Prev is the reuse-chain tree at replicate Done (nil before the
	// first replicate).
	Prev *tree.Tree
}

// Result is a finished job.
type Result struct {
	// Newick and LogLikelihood are an ML job's best tree and score
	// (empty for a bootstrap batch, whose output is its replicates).
	Newick        string
	LogLikelihood float64
	// Dispatches counts the likelihood dispatches the job posted.
	Dispatches int64
}

// Run executes one job attempt over pat on a fresh engine and thread
// crew. A bootstrap job passes emit its checkpoint after every
// replicate — one Checkpoint, updated in place from boundary to
// boundary; an emit error stops the stream there and is returned as
// is.
func Run(pat *msa.Patterns, spec *Spec, emit func(*Checkpoint) error) (*Result, error) {
	set := gtr.NewPartitionSet(pat.NumParts())
	for i, pr := range pat.PartRanges() {
		if !spec.Gamma {
			set.Rates[i] = gtr.NewUniform(pr.Len())
			continue
		}
		g, err := gtr.NewGamma(spec.Alpha, 4)
		if err != nil {
			return nil, err
		}
		set.Rates[i] = g
	}
	var pool *threads.Pool
	if pat.NumParts() > 1 {
		pool = threads.NewPoolWeighted(spec.Threads, pat.Weights)
	} else {
		pool = threads.NewPool(spec.Threads, pat.NumPatterns())
	}
	defer pool.Close()
	eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
	if err != nil {
		return nil, err
	}
	if spec.EmpiricalFreqs {
		eng.EstimateEmpiricalFreqs()
	}

	switch spec.Kind {
	case ML:
		if spec.Start == nil {
			return nil, fmt.Errorf("gridjob: ML job without a starting tree")
		}
		sr, err := search.Run(eng, spec.Start.Clone(), spec.Settings)
		if err != nil {
			return nil, err
		}
		nw, err := tree.FormatNewick(sr.Tree, nil)
		if err != nil {
			return nil, err
		}
		return &Result{Newick: nw, LogLikelihood: sr.LogLikelihood, Dispatches: eng.DispatchCount()}, nil
	case Bootstrap:
		cp := spec.Checkpoint
		cp.Trees = append([]string(nil), cp.Trees...)
		cp.LnLs = append([]float64(nil), cp.LnLs...)
		bs, pars := rng.New(0), rng.New(0)
		bs.SetState(cp.BsState)
		pars.SetState(cp.ParsState)
		runner := rapidbs.NewRunner(eng)
		runner.SetSearchSettings(spec.Settings)
		if spec.Prev != nil {
			runner.SetPrevTree(spec.Prev.Clone())
		}
		err := runner.RunRange(cp.Done, spec.Replicates-cp.Done, bs, pars, func(rep *rapidbs.Replicate) error {
			nw, err := tree.FormatNewick(rep.Tree, nil)
			if err != nil {
				return err
			}
			cp.Done++
			cp.BsState, cp.ParsState = bs.State(), pars.State()
			cp.PrevTree = nw
			cp.Trees = append(cp.Trees, nw)
			cp.LnLs = append(cp.LnLs, rep.LogLikelihood)
			return emit(&cp)
		})
		if err != nil {
			return nil, err
		}
		return &Result{Dispatches: eng.DispatchCount()}, nil
	}
	return nil, fmt.Errorf("gridjob: unknown job kind %d", spec.Kind)
}
