package finegrain

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/gridjob"
	"raxml/internal/msa"
)

// This file is the whole-job session: the grid's coarse grain over the
// fleet. The master ships one grid job — patterns plus gridjob.Spec —
// in a single TagRunJob frame; the worker runs it with gridjob.Run on
// its own thread crew and talks back only at the job's natural
// boundaries:
//
//	master                         worker
//	TagRunJob(patterns, spec) ->
//	                           <- TagJobProgress   (every Spec.Progress while computing)
//	                           <- TagJobCheckpoint (bootstrap: each replicate boundary)
//	TagJobContinue            ->                   (or TagRelease: stop here, ack TagReleased)
//	                           <- TagJobResult     (or TagErr: the job's own failure)
//
// The worker waits for the master's verdict at every replicate
// boundary, so the master decides — exactly where a master-local job
// polls its grid — whether the stream goes on, and a stopped job never
// computes a replicate nobody will keep.

// errJobStopped ends a worker's job at a replicate boundary when the
// master's verdict is not TagJobContinue.
var errJobStopped = errors.New("finegrain: job stopped by master")

// serveJob runs one whole grid job from its TagRunJob payload (done:
// the worker must exit). A corrupt init frame closes the transport, as
// in serveSession: the master sees a dead rank.
func serveJob(tr fabric.Transport, payload []byte) (done bool, err error) {
	pat, spec, err := gridjob.DecodeInit(payload)
	if err != nil {
		tr.Close()
		return true, fmt.Errorf("finegrain: job init decode: %w", err)
	}
	var mu sync.Mutex // the keepalive and the job share the send side
	send := func(tag byte, p []byte) error {
		mu.Lock()
		defer mu.Unlock()
		return tr.Send(0, tag, p)
	}
	var (
		verdict byte  // the stop frame that ended the job, if any
		linkErr error // the link failure that ended it, if any
		waiting atomic.Bool
	)
	// Progress frames say "still computing", so they pause while the
	// worker waits for a verdict: if the checkpoint or the verdict is
	// lost, the master's silence bound must still expire.
	stop := keepalive(spec.Progress, func() error {
		if waiting.Load() {
			return nil
		}
		return send(TagJobProgress, nil)
	})
	res, jobErr := gridjob.Run(pat, spec, func(cp *gridjob.Checkpoint) error {
		waiting.Store(true)
		defer waiting.Store(false)
		if linkErr = send(TagJobCheckpoint, cp.Encode()); linkErr != nil {
			return linkErr
		}
		var tag byte
		if tag, _, linkErr = tr.Recv(0); linkErr != nil {
			return linkErr
		}
		if tag != TagJobContinue {
			verdict = tag
			return errJobStopped
		}
		return nil
	})
	stop()
	// reply sends the session's last frame and returns to the idle loop
	// (or exits, when the master is gone).
	reply := func(tag byte, p []byte) (bool, error) {
		return send(tag, p) != nil, nil
	}
	switch {
	case linkErr != nil:
		if errors.Is(linkErr, fabric.ErrTransportClosed) {
			return true, nil
		}
		return true, fmt.Errorf("finegrain: job link: %w", linkErr)
	case verdict == TagRelease:
		return reply(TagReleased, nil)
	case verdict == TagShutdown:
		return true, nil
	case verdict != 0:
		tr.Close()
		return true, fmt.Errorf("finegrain: job got unexpected tag %d", verdict)
	case jobErr != nil:
		// The job's own failure: report it and stay idle for the
		// master's release.
		return reply(TagErr, []byte(jobErr.Error()))
	}
	return reply(TagJobResult, res.Encode())
}

// keepalive calls beat every period until stop is called (a no-op for
// period 0) and stops early if beat fails. stop returns once the
// goroutine is gone, so no progress frame can follow the job's result.
func keepalive(period time.Duration, beat func() error) (stop func()) {
	if period <= 0 {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if beat() != nil {
					return
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// RunJob is the master side of a whole-job session over the leased
// worker behind l: ship the job, hand each relayed checkpoint to
// onCheckpoint (which may stop the stream by returning an error), and
// return the worker's result. The worker keeps the link busy with
// progress frames, so DispatchTimeout bounds silence on the link, not
// the job's length.
//
// A broken, silent or desynced link — including a replicate out of
// sequence, which means a frame was lost — returns a
// fabric.RankDeadError (job-local rank 1), the grid's restripe signal.
// A worker-reported failure and an onCheckpoint error return as they
// are. After a result the worker is idle and its link quiet; after any
// error the caller ends the lease with the release handshake — after
// an onCheckpoint error the worker is parked at that boundary and acks
// the release there.
func RunJob(l fabric.Link, pat *msa.Patterns, spec *gridjob.Spec, onCheckpoint func(*gridjob.Checkpoint) error) (*gridjob.Result, error) {
	dead := func(err error) error { return &fabric.RankDeadError{Rank: 1, Err: err} }
	sp := *spec
	sp.Progress = DispatchTimeout / 4
	if err := l.Send(TagRunJob, gridjob.EncodeInit(pat, &sp)); err != nil {
		return nil, dead(fmt.Errorf("finegrain: job init send: %w", err))
	}
	if DispatchTimeout > 0 {
		defer fabric.SetLinkRecvDeadline(l, time.Time{})
	}
	done := spec.Checkpoint.Done
	for {
		if DispatchTimeout > 0 {
			fabric.SetLinkRecvDeadline(l, time.Now().Add(DispatchTimeout))
		}
		tag, payload, err := l.Recv()
		if err != nil {
			return nil, dead(fmt.Errorf("finegrain: job recv: %w", err))
		}
		switch tag {
		case TagJobProgress:
		case TagJobCheckpoint:
			cp, err := gridjob.DecodeCheckpoint(payload)
			if err != nil {
				return nil, dead(err)
			}
			if spec.Kind != gridjob.Bootstrap || cp.Done != done+1 || cp.Done > spec.Replicates {
				return nil, dead(fmt.Errorf("finegrain: checkpoint at %d replicates out of sequence (want %d)", cp.Done, done+1))
			}
			done = cp.Done
			if err := onCheckpoint(cp); err != nil {
				return nil, err
			}
			if err := l.Send(TagJobContinue, nil); err != nil {
				return nil, dead(fmt.Errorf("finegrain: job verdict send: %w", err))
			}
		case TagJobResult:
			res, err := gridjob.DecodeResult(payload)
			if err != nil {
				return nil, dead(err)
			}
			if spec.Kind == gridjob.Bootstrap && done != spec.Replicates {
				return nil, dead(fmt.Errorf("finegrain: bootstrap job ended after %d of %d replicates", done, spec.Replicates))
			}
			return res, nil
		case TagErr:
			return nil, fmt.Errorf("finegrain: worker job: %s", payload)
		default:
			return nil, dead(fmt.Errorf("finegrain: unexpected tag %d in job relay", tag))
		}
	}
}
