package grid

import (
	"fmt"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
	"raxml/internal/gridjob"
	"raxml/internal/msa"
)

// Elastic runs one coarse job — an ML search or a bootstrap batch —
// on whatever the fleet offers, retrying on a fresh rank when a leased
// one dies. Each attempt:
//
//  1. builds the attempt's spec (spec reads the job's last checkpoint,
//     so a retry resumes where the dead rank's stream stopped),
//  2. leases at most one worker rank — none when the free pool is
//     empty or the grid's rank budget is spent, and the attempt then
//     runs master-local on a ThreadsPerRank crew instead of waiting,
//  3. runs the whole job: gridjob.Run here, or finegrain.RunJob on the
//     leased rank, which runs the same gridjob.Run on its own crew and
//     relays its checkpoint back to onCheckpoint at every replicate
//     boundary,
//  4. ends the lease: a worker that delivered its result returns to
//     the free pool; after a failure the release handshake drains the
//     link, and a worker that does not ack is marked dead.
//
// On a RankDeadError the attempt repeats. Any other error — the job's
// own, or an onCheckpoint error such as ErrCanceled — returns as is.
// onCheckpoint runs on the master either way, so it checkpoints through
// ctx.Save and emits trace events exactly as a master-local job does.
func (c *JobContext) Elastic(pat *msa.Patterns, spec func() (*gridjob.Spec, error), onCheckpoint func(*gridjob.Checkpoint) error) (*gridjob.Result, error) {
	for attempt := 0; ; attempt++ {
		if c.Canceled() {
			return nil, ErrCanceled
		}
		sp, err := spec()
		if err != nil {
			return nil, err
		}
		sp.Threads = c.g.cfg.ThreadsPerRank
		res, err := c.attempt(pat, sp, onCheckpoint)
		if err == nil {
			return res, nil
		}
		rde := fabric.AsRankDead(err)
		if rde == nil {
			return nil, err
		}
		if attempt >= c.g.cfg.MaxRestripes {
			return nil, fmt.Errorf("grid: job %s: %d re-stripes exhausted: %w", c.job.ID, attempt, err)
		}
		c.g.cfg.Tracer.Event("restripe", c.job.ID, map[string]any{
			"dead_rank": rde.Rank, "attempt": attempt + 1,
		})
	}
}

// attempt runs one lease-to-release cycle.
func (c *JobContext) attempt(pat *msa.Patterns, sp *gridjob.Spec, onCheckpoint func(*gridjob.Checkpoint) error) (*gridjob.Result, error) {
	w := c.g.leaseRank(c.job.ID)
	if w == nil {
		return gridjob.Run(pat, sp, onCheckpoint)
	}
	res, err := finegrain.RunJob(w.link, pat, sp, onCheckpoint)
	c.g.returnRank(w, err == nil)
	return res, err
}
