// Package finegrain is the distributed fine-grained worker pool: the
// reproduction of RAxML's _FINE_GRAIN_MPI path (genericParallelization.c),
// where the workers of the likelihood job engine live on *remote
// processes*, not just threads.
//
// The in-process hybrid (threads.Pool) stripes the pattern axis over a
// thread crew sharing one CLV arena. This package adds one more level
// to that same structure: the axis is first striped over R fabric
// ranks, each rank owns its stripe outright — the stripe's pattern
// data, tip vectors and a CLV arena covering only the stripe — and
// each rank subdivides its stripe over its own t-thread crew. The
// resulting R×t grid is the paper's MPI×Pthreads topology with the
// rank stripes made explicit.
//
// Pool implements likelihood.Dispatcher on the master rank, so
// likelihood.Engine — and everything above it: search, optimizers,
// core — runs unchanged on top of distributed workers. One Post is:
//
//	encode job (descriptor window + views + branch lengths
//	            [+ model-sync block when the model epoch moved])
//	-> ONE broadcast over the fabric transport
//	-> master executes its own stripe (one local barrier crossing)
//	-> ONE rank-ordered collection of reduction partials
//
// so a partitioned full-tree relikelihood costs exactly one descriptor
// broadcast plus one reduction — the invariant the transport counters
// assert in tests. Reductions combine rank partials in rank order
// after the local worker-order sums, keeping results deterministic for
// a fixed R×t grid.
//
// The transport is pluggable (fabric.Transport): in-proc channels for
// fabric.Run-hosted hybrids and tests, TCP for real worker processes
// spawned via `raxml` worker mode. See docs/hybrid-topology.md for the
// wire protocol.
package finegrain

import (
	"fmt"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/threads"
)

// Frame tags of the finegrain protocol.
const (
	// TagInit carries a rank's WorkerInit (master -> worker, once).
	TagInit byte = 1 + iota
	// TagJob carries one encoded job frame (master -> workers).
	TagJob
	// TagPartial carries one encoded reduction partial (worker -> master).
	TagPartial
	// TagShutdown ends a worker's serve loop (master -> workers).
	TagShutdown
	// TagErr carries a worker-side error message (worker -> master).
	TagErr
	// TagRelease ends a worker's current session, returning it to the
	// grid's free pool instead of terminating it (master -> worker).
	TagRelease
	// TagReleased acks a release; the master discards every frame ahead
	// of it, flushing stale partials of an abandoned job (worker -> master).
	TagReleased
	// TagPing probes an idle worker's liveness (master -> worker).
	TagPing
	// TagPong answers a ping (worker -> master).
	TagPong
	// TagJobFrag carries one fragment of a chunked job frame: the worker
	// appends fragments to its reassembly buffer and executes when the
	// closing TagJob frame arrives. Fragmentation is what lets the
	// master overlap P-matrix fills for later descriptor entries with
	// the shipping of earlier ones (master -> workers).
	TagJobFrag
	// TagRunJob ships one whole grid job — patterns plus a gridjob.Spec —
	// to an idle worker, which runs it on its own thread crew
	// (master -> worker; see job.go).
	TagRunJob
	// TagJobCheckpoint relays a running bootstrap job's checkpoint at a
	// replicate boundary; the worker then waits for the master's
	// verdict (worker -> master).
	TagJobCheckpoint
	// TagJobContinue is the verdict that lets a job past a replicate
	// boundary; TagRelease is the one that stops it (master -> worker).
	TagJobContinue
	// TagJobProgress is a running job's keepalive (worker -> master).
	TagJobProgress
	// TagJobResult carries a finished job's gridjob.Result
	// (worker -> master).
	TagJobResult
)

// Fragmentation thresholds: descriptors of at least fragMinEntries ship
// as a header fragment plus fragEntries-sized entry fragments, so the
// master's deferred P-fill pipelines with the scatter; shorter
// descriptors (every makenewz iteration, empty-descriptor reductions)
// stay single-frame. Package variables so tests can force fragmentation
// on small data.
var (
	fragMinEntries = 64
	fragEntries    = 64
)

// Progress guards. Variables, not constants, so chaos runs tighten
// them for fast fault detection; zero disables a guard.
var (
	// DispatchTimeout bounds the master's wait for each rank's partial
	// within one dispatch, and on a whole-job session (RunJob) the
	// silence between the worker's frames — the worker sends progress
	// frames at a quarter of it. A rank that neither answers nor errors
	// — wedged process, frame lost in flight — would otherwise stall the
	// master forever; the deadline converts it into the same
	// RankDeadError a crashed rank produces, feeding the grid's
	// restripe path. Generous by default: it needs only to beat
	// "forever", not to catch slow ranks.
	DispatchTimeout = 2 * time.Minute
	// ReleaseTimeout bounds the release handshake's drain per rank: a
	// worker that never acks (its TagRelease was lost, or it is gone)
	// is reported dead instead of blocking the lease teardown.
	ReleaseTimeout = 30 * time.Second
)

// stripeQuantum is the pattern quantum rank stripes snap to, relative
// to partition starts — the same 16-pattern (whole-cache-line) quantum
// the likelihood engine uses for thread stripes, so rank boundaries
// land exactly where thread boundaries are allowed to land.
const stripeQuantum = 16

// Pool is the master-side endpoint of a distributed worker group. It
// implements likelihood.Dispatcher: the master's likelihood engine
// posts job codes to it exactly as it would to a threads.Pool. The
// master rank doubles as worker rank 0, executing stripe 0 on a local
// thread crew; ranks 1..R-1 execute their stripes remotely.
//
// A Pool serves one engine at a time (the engine posting through it
// must be the one that encodes the jobs) and is single-master like
// threads.Pool.
type Pool struct {
	tr      fabric.Transport
	local   *threads.Pool
	stripes []threads.Range

	// lanes are the per-rank send/receive lanes a dispatch scatters
	// through (nil on a single-rank grid, which has no wire at all).
	lanes *fabric.Lanes

	// remote[r] is rank r's partial of the current job, preallocated at
	// construction and decoded into in place every dispatch (nil for the
	// master's own rank 0).
	remote []*likelihood.WirePartial

	// rankErr[r] holds rank r's send error of the current direct
	// (non-lane) dispatch until the fold consumes it; reused across
	// dispatches so the hot path stays allocation-free.
	rankErr []error

	// shippedModel/shippedTopo are the engine epochs as of the last
	// broadcast: a moved model epoch attaches a model-sync block, a
	// moved topology epoch attaches a tile-reset marker.
	shippedModel, shippedTopo uint64

	closed bool
}

// NewPool builds the master endpoint over an accepted transport: it
// computes the partition-aligned rank stripes, ships every remote rank
// its WorkerInit (stripe pattern data + geometry + treatment shape),
// and starts the master's own local thread crew over stripe 0.
//
// set supplies the treatment *shape* (CAT vs GAMMA, category count)
// the worker engines are built with; it should be the same set the
// master's engine is then constructed from. threadsPerRank is t of the
// R×t grid (the same t is applied on every rank, as in the paper's
// one-rank-per-node runs).
func NewPool(tr fabric.Transport, pat *msa.Patterns, set *gtr.PartitionSet, threadsPerRank int) (*Pool, error) {
	ranks := tr.Size()
	if tr.Rank() != 0 {
		return nil, fmt.Errorf("finegrain: NewPool on rank %d (master is rank 0)", tr.Rank())
	}
	if threadsPerRank < 1 {
		threadsPerRank = 1
	}
	stripes := threads.SplitWeighted(pat.Weights, ranks)
	threads.AlignBoundaries(stripes, stripeQuantum, pat.PartStarts())
	for r, s := range stripes {
		if s.Len() == 0 {
			return nil, fmt.Errorf("finegrain: rank %d's stripe is empty (%d ranks over %d patterns)",
				r, ranks, pat.NumPatterns())
		}
	}
	p := &Pool{
		tr:      tr,
		stripes: stripes,
		remote:  make([]*likelihood.WirePartial, ranks),
		rankErr: make([]error, ranks),
	}
	for r := 1; r < ranks; r++ {
		sp, partIndex, clipOff := pat.Slice(stripes[r].Lo, stripes[r].Hi)
		init := &likelihood.WorkerInit{
			Rank: r, Ranks: ranks, Threads: threadsPerRank,
			Geom: likelihood.WorkerGeom{
				StripeLo: stripes[r].Lo, StripeHi: stripes[r].Hi,
				MasterParts: pat.NumParts(),
				PartMap:     partIndex, ClipOff: clipOff,
			},
			Pat:   sp,
			IsCAT: set.IsCAT(),
			NCats: set.ClvCats(),
		}
		if err := tr.Send(r, TagInit, likelihood.EncodeWorkerInit(init)); err != nil {
			return nil, fmt.Errorf("finegrain: init rank %d: %w", r, err)
		}
		p.remote[r] = &likelihood.WirePartial{}
	}
	if ranks > 1 {
		p.lanes = fabric.NewLanes(tr)
	}
	p.local = threads.NewPoolStripe(threadsPerRank, pat.Weights, stripes[0].Lo, stripes[0].Hi)
	return p, nil
}

// Transport returns the pool's transport (its counters carry the
// broadcast/reduction accounting tests assert on).
func (p *Pool) Transport() fabric.Transport { return p.tr }

// Stripes returns the per-rank pattern stripes.
func (p *Pool) Stripes() []threads.Range { return p.stripes }

// LocalPool returns the master's own thread crew (stripe 0).
func (p *Pool) LocalPool() *threads.Pool { return p.local }

// Post implements likelihood.Dispatcher: scatter the encoded job
// through the per-rank send lanes, execute the master's stripe locally,
// then fold the rank partials in rank order as they arrive (an
// out-of-order arrival parks in its lane, so the reduction order — and
// the result bits — are those of the sequential fold). The runner must
// be the master's likelihood engine (it implements
// likelihood.WireMaster).
//
// Long descriptors ship fragmented: the header goes out first, then
// each fragEntries-sized entry range is P-filled, delta-encoded and
// queued while the previous range is still on the wire — the
// encode/fill/transmit pipeline that replaces the old
// encode-everything-then-broadcast step. Short descriptors (makenewz
// iterations, evaluations) stay single-frame. Either way a dispatch
// counts as ONE broadcast and ONE reduction in the transport stats.
//
// Transport failures panic — the Dispatcher contract has no error
// return — but only after every kicked lane has been drained, and the
// panic value is the wrapped *error*, so a supervisor that recovers it
// can errors.As out a fabric.RankDeadError and react (the grid
// scheduler re-stripes the pool over survivors and resumes from
// checkpoint). Without a supervisor the behavior is the pre-grid
// fail-fast: a dead rank kills the run.
func (p *Pool) Post(runner threads.JobRunner, code threads.JobCode) {
	wm, ok := runner.(likelihood.WireMaster)
	if !ok {
		panic(fmt.Sprintf("finegrain: runner %T cannot encode wire jobs", runner))
	}
	if p.lanes == nil {
		// Single-rank grid: no wire, no deferred fill (PipelinesFill
		// reports false, so the engine filled P matrices eagerly).
		p.local.Post(runner, code)
		return
	}
	modelEpoch, topoEpoch := wm.WireEpochs()
	includeModel := modelEpoch != p.shippedModel
	reset := topoEpoch != p.shippedTopo

	header, n := wm.WireJobHeader(code, includeModel, reset)
	direct := n == 0

	// Straggler guard: bound this dispatch's wait for every rank's
	// partial. Armed before the first frame goes out, so the lane
	// receivers (kicked below) and the direct-path Recvs all run under
	// it; cleared again once the fold completes.
	guard := DispatchTimeout > 0
	if guard {
		dl := time.Now().Add(DispatchTimeout)
		for r := 1; r < p.tr.Size(); r++ {
			fabric.SetRecvDeadline(p.tr, r, dl)
		}
	}
	switch {
	case direct:
		// Empty descriptor (every makenewz iteration, warm evaluations):
		// one tiny frame and nothing to overlap it with. Use the
		// transport directly — the lanes are quiescent between matched
		// Kick/Await pairs — saving the per-rank goroutine handoffs the
		// lane pipeline costs; on oversubscribed hosts those handoffs
		// are scheduler round trips that dominate the dispatch.
		frame := wm.WireJobFrame()
		for r := 1; r < p.tr.Size(); r++ {
			p.rankErr[r] = p.tr.Send(r, TagJob, frame)
		}
	case n >= fragMinEntries:
		// Fragmented scatter: ship the header, then fill+encode entry
		// ranges while earlier ranges are already in the lanes. The last
		// range closes the frame with TagJob.
		p.lanes.Scatter(TagJobFrag, header)
		for lo := 0; lo < n; lo += fragEntries {
			hi, tag := lo+fragEntries, TagJobFrag
			if hi >= n {
				hi, tag = n, TagJob
			}
			wm.FillTravChunk(lo, hi)
			p.lanes.Scatter(tag, wm.WireJobEntries(lo, hi))
		}
	default:
		wm.WireJobEntries(0, n)
		p.lanes.Scatter(TagJob, wm.WireJobFrame())
		wm.FillTravChunk(0, n)
	}
	p.tr.Stats().Broadcasts.Add(1)
	if !direct {
		p.lanes.KickAll()
	}
	p.shippedModel, p.shippedTopo = modelEpoch, topoEpoch

	p.local.Post(runner, code)

	// Fold every rank before reacting to any failure: a panic with a
	// kicked receiver still pending would leave the lane unjoinable for
	// the supervisor's Release. A rank whose send failed is still
	// received from — its link is broken, so the Recv errors rather
	// than blocks — keeping the kick/await pairing exact.
	var firstErr error
	for r := 1; r < p.tr.Size(); r++ {
		var res fabric.LaneResult
		sendErr := p.rankErr[r]
		if direct {
			res.Tag, res.Payload, res.Err = p.tr.Recv(r)
		} else {
			res = p.lanes.Await(r)
			sendErr = p.lanes.SendErr(r)
		}
		var err error
		switch {
		case sendErr != nil:
			err = fmt.Errorf("rank %d send: %w", r, sendErr)
		case res.Err != nil:
			err = fmt.Errorf("rank %d recv: %w", r, res.Err)
		case res.Tag == TagErr:
			// A worker-reported execution error: the job's own failure,
			// deliberately NOT RankDead-typed — restriping would just
			// replay it on the next lease.
			err = fmt.Errorf("rank %d: %s", r, res.Payload)
		case res.Tag != TagPartial:
			// Desynchronized stream (a frame was lost or mangled in
			// flight): the rank's data can no longer be trusted, which is
			// operationally identical to its death — type it so the grid
			// re-stripes instead of failing the job.
			err = &fabric.RankDeadError{Rank: r, Err: fmt.Errorf("finegrain: unexpected tag %d in reduction", res.Tag)}
		default:
			if derr := likelihood.DecodeWirePartialInto(p.remote[r], res.Payload); derr != nil {
				err = &fabric.RankDeadError{Rank: r, Err: fmt.Errorf("finegrain: partial decode: %w", derr)}
			}
		}
		fabric.Recycle(p.tr, res.Payload)
		p.rankErr[r] = nil
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if code == threads.JobSiteLL {
			wm.AbsorbRemoteSiteLL(p.stripes[r].Lo, p.remote[r].Vec)
		}
	}
	if guard {
		for r := 1; r < p.tr.Size(); r++ {
			fabric.SetRecvDeadline(p.tr, r, time.Time{})
		}
	}
	if firstErr != nil {
		panic(fmt.Errorf("finegrain: dispatch: %w", firstErr))
	}
	p.tr.Stats().Reductions.Add(1)
}

// Workers returns the number of LOCAL workers (the crew running RunJob
// in this process); remote crews execute behind the wire.
func (p *Pool) Workers() int { return p.local.Workers() }

// Slot returns local worker w's reduction slot.
func (p *Pool) Slot(w int) *[threads.SlotWidth]float64 { return p.local.Slot(w) }

// SumSlots combines slot i over the whole grid: local workers in
// worker order, then remote ranks in rank order — rank order IS
// pattern order (stripes ascend with rank), so the reduction is
// deterministic for a fixed grid. Only slots 0 and 1 cross the wire
// (every current job code reduces into those); higher slots are local.
func (p *Pool) SumSlots(i int) float64 {
	sum := p.local.SumSlots(i)
	if i < 2 {
		for _, part := range p.remote {
			if part != nil {
				sum += part.Slots[i]
			}
		}
	}
	return sum
}

// SumSlots2 combines two slots at once (makenewz derivatives).
func (p *Pool) SumSlots2(i, j int) (float64, float64) {
	a, b := p.local.SumSlots2(i, j)
	for _, part := range p.remote {
		if part == nil {
			continue
		}
		if i < 2 {
			a += part.Slots[i]
		}
		if j < 2 {
			b += part.Slots[j]
		}
	}
	return a, b
}

// EnsureWide sizes the local wide slots; remote ranks size their own
// (each worker engine calls EnsureWide on its own crew).
func (p *Pool) EnsureWide(width int) { p.local.EnsureWide(width) }

// WideSlot returns local worker w's wide reduction row.
func (p *Pool) WideSlot(w int) []float64 { return p.local.WideSlot(w) }

// SumWide combines wide slot i (a partition's log-likelihood
// component) over the whole grid, local first then rank order.
func (p *Pool) SumWide(i int) float64 {
	sum := p.local.SumWide(i)
	for _, part := range p.remote {
		if part != nil && i < len(part.Wide) {
			sum += part.Wide[i]
		}
	}
	return sum
}

// AlignRangesAt snaps the local crew's stripe boundaries; rank-stripe
// boundaries were snapped to the same quantum at construction.
func (p *Pool) AlignRangesAt(quantum int, starts []int) { p.local.AlignRangesAt(quantum, starts) }

// ForkJoin forwards master-side precomputation to the local crew.
func (p *Pool) ForkJoin(n, grain int, fn func(lo, hi int)) { p.local.ForkJoin(n, grain, fn) }

// ForkJoinRange forwards a windowed fill to the local crew (the
// pipelined dispatch path fills one descriptor chunk at a time).
func (p *Pool) ForkJoinRange(lo, hi, grain int, fn func(lo, hi int)) {
	p.local.ForkJoinRange(lo, hi, grain, fn)
}

// PipelinesFill reports whether the pool overlaps the P-matrix fill
// with the dispatch: the engine then defers the fill at traversal
// planning and Post completes it chunk-by-chunk between scatters. A
// single-rank grid has no wire to overlap with, so it fills eagerly.
func (p *Pool) PipelinesFill() bool { return p.lanes != nil }

// Dispatches counts jobs posted (each Post is one local barrier
// crossing plus one broadcast/reduction pair).
func (p *Pool) Dispatches() int64 { return p.local.Dispatches() }

// AbortJob cancels the local crew's job cooperatively. Remote ranks
// finish their stripe of the job — their partials are collected and
// discarded with the rest of the aborted result; the master's rollback
// re-marks the descriptor stale everywhere, so the next dispatch
// rewrites whatever remote ranks computed.
func (p *Pool) AbortJob() { p.local.AbortJob() }

// Aborted reports whether the local job was asked to stop.
func (p *Pool) Aborted() bool { return p.local.Aborted() }

// Release ends the pool's lease on its remote ranks without
// terminating them: each rank gets a TagRelease frame and the master
// drains its link — discarding partials of any abandoned in-flight job
// — until the TagReleased ack, after which the rank is provably idle
// and safe to lease to another coarse job. The local crew is closed.
//
// Ranks that fail the handshake (broken link, no ack) are returned so
// the caller can mark them dead; a failed rank never blocks the
// release of the ranks after it.
func (p *Pool) Release() (dead []int) {
	if p.closed {
		return nil
	}
	p.closed = true
	if p.lanes != nil {
		p.lanes.Close() // idle between dispatches; handshake uses tr directly
	}
	for r := 1; r < p.tr.Size(); r++ {
		if !releaseRank(p.tr, r) {
			dead = append(dead, r)
		}
	}
	p.local.Close()
	return dead
}

// releaseRank runs the release handshake with one rank: send
// TagRelease, discard frames until the TagReleased ack. Reports
// whether the rank acked (is alive and idle).
func releaseRank(tr fabric.Transport, r int) bool {
	if err := tr.Send(r, TagRelease, nil); err != nil {
		return false
	}
	// Bounded drain, in both frames and time: a sane worker has at most
	// a handful of frames in flight (one partial per abandoned job
	// frame); a stream that keeps producing non-ack frames is broken,
	// and a wedged worker that never acks must not hold the release of
	// the ranks after it hostage.
	if ReleaseTimeout > 0 {
		fabric.SetRecvDeadline(tr, r, time.Now().Add(ReleaseTimeout))
		defer fabric.SetRecvDeadline(tr, r, time.Time{})
	}
	for i := 0; i < 1024; i++ {
		tag, _, err := tr.Recv(r)
		if err != nil {
			return false
		}
		if tag == TagReleased {
			return true
		}
	}
	return false
}

// Close shuts the grid down: remote serve loops get a shutdown frame,
// the local crew is closed. The transport itself stays open (its owner
// closes it).
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.lanes != nil {
		p.lanes.Close()
	}
	// Best effort, per rank: one dead rank's broken link must not stop
	// the shutdown frames to the ranks after it (fabric.Broadcast
	// returns on the first failed Send, which would leave survivors
	// blocked in Recv forever).
	for r := 1; r < p.tr.Size(); r++ {
		_ = p.tr.Send(r, TagShutdown, nil)
	}
	p.local.Close()
}

// Run hosts an in-proc R×t hybrid: rank 0 builds the distributed pool
// and a full-axis master engine over it and runs body; ranks 1..R-1
// serve their stripes. This is the finegrain analogue of fabric.Run —
// the zero-setup entry point used by core's hybrid wiring and tests.
// The engine handed to body evaluates over all R×t workers; body runs
// on the master only.
func Run(ranks, threadsPerRank int, pat *msa.Patterns, set *gtr.PartitionSet, body func(eng *likelihood.Engine, pool *Pool) error) error {
	if ranks < 1 {
		return fmt.Errorf("finegrain: %d ranks", ranks)
	}
	trs := fabric.NewChanTransports(ranks)
	errs := make([]error, ranks)
	done := make(chan int, ranks-1)
	for r := 1; r < ranks; r++ {
		go func(r int) {
			defer func() { done <- r }()
			errs[r] = Serve(trs[r])
		}(r)
	}
	err := func() error {
		pool, err := NewPool(trs[0], pat, set, threadsPerRank)
		if err != nil {
			return err
		}
		defer pool.Close()
		eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
		if err != nil {
			return err
		}
		return body(eng, pool)
	}()
	if err != nil {
		// Unblock serving ranks waiting on the master.
		trs[0].Close()
	}
	for r := 1; r < ranks; r++ {
		<-done
	}
	trs[0].Close()
	if err != nil {
		return err
	}
	for r := 1; r < ranks; r++ {
		if errs[r] != nil {
			return fmt.Errorf("finegrain: rank %d: %w", r, errs[r])
		}
	}
	return nil
}
