package finegrain

import (
	"errors"
	"fmt"

	"raxml/internal/fabric"
	"raxml/internal/likelihood"
	"raxml/internal/threads"
)

// Serve runs one remote worker rank to completion: receive the init
// frame, build the stripe engine (stripe pattern data, stripe CLV
// arena, local t-thread crew), then execute job frames until a
// shutdown frame — or a closed transport — ends the loop. This is the
// one-shot entry point of a `-fine` worker, whose whole life is a
// single session.
func Serve(tr fabric.Transport) error {
	return ServeSessions(tr)
}

// ServeSessions runs a worker rank: an idle loop that the master
// leases into *sessions* and returns to the free pool between them.
// One worker process thus serves many coarse jobs over its lifetime.
// There are two session types: a stripe session (TagInit) serves one
// fine-grain engine's dispatches — the -fine path — and a job session
// (TagRunJob, job.go) runs one whole grid job on the worker's own crew:
//
//	idle:    TagPing -> TagPong (the scheduler's liveness probe)
//	         TagRelease -> TagReleased (idempotent; stray release)
//	         TagInit -> build engine, enter stripe session
//	         TagRunJob -> run the job, relaying its boundaries (job.go)
//	         TagShutdown / closed transport -> exit
//	stripe:  TagJob -> execute, send TagPartial
//	         TagRelease -> send TagReleased, drop engine, back to idle
//	         TagShutdown / closed transport -> exit
//
// The release handshake is what makes worker reuse safe after a
// failure: the master discards every frame ahead of the TagReleased
// ack, so frames of an abandoned job can never be mistaken for the
// next session's traffic.
//
// A worker is stateless beyond its session engine: every job frame
// carries the node capacity, carries a tile-reset marker when the
// master re-attached a tree, and carries a model-sync block when model
// state changed, so a worker that just replays frames in order is
// always consistent with the master's planning. Clean job-level
// failures (ExecWireJob errors) are reported to the master as TagErr
// frames; protocol desync or decode failures instead close the
// transport and die loudly, so the master sees a dead rank and
// restripes rather than trusting a corrupted stream.
func ServeSessions(tr fabric.Transport) error {
	for {
		tag, payload, err := tr.Recv(0)
		if err != nil {
			if errors.Is(err, fabric.ErrTransportClosed) {
				return nil // master tore the world down
			}
			return fmt.Errorf("finegrain: worker idle recv: %w", err)
		}
		switch tag {
		case TagShutdown:
			return nil
		case TagPing:
			if err := tr.Send(0, TagPong, nil); err != nil {
				return nil
			}
		case TagRelease:
			// Stray release of a lease that never got its init (the
			// master's pool construction failed partway): ack and stay
			// idle.
			if err := tr.Send(0, TagReleased, nil); err != nil {
				return nil
			}
		case TagInit:
			done, err := serveSession(tr, payload)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
		case TagRunJob:
			done, err := serveJob(tr, payload)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
		default:
			// Protocol desync: the stream can no longer be trusted, so die
			// loudly — close the transport (the master's next Recv fails
			// and restripes around this rank) instead of sending TagErr,
			// which would itself be an unexpected frame mid-protocol.
			tr.Close()
			return fmt.Errorf("finegrain: idle worker got unexpected tag %d", tag)
		}
	}
}

// serveSession executes one lease: build the stripe engine from the
// init payload, then serve job frames until the master releases the
// worker (done=false: back to the idle loop) or shuts it down
// (done=true).
func serveSession(tr fabric.Transport, initPayload []byte) (done bool, err error) {
	init, err := likelihood.DecodeWorkerInit(initPayload)
	if err != nil {
		// A corrupt init frame means the stream is untrustworthy; die
		// loudly so the master restripes instead of trying to lease into
		// a desynced worker.
		tr.Close()
		return true, fmt.Errorf("finegrain: worker init decode: %w", err)
	}
	eng, err := likelihood.BuildWorkerEngine(init)
	if err != nil {
		return true, fmt.Errorf("finegrain: worker engine: %w", err)
	}
	if pool, ok := eng.Pool().(*threads.Pool); ok {
		defer pool.Close()
	}
	geom := &init.Geom
	// Session-lifetime reassembly buffer and decoded-job slabs: TagJobFrag
	// fragments accumulate in frag until the closing TagJob frame, and
	// every frame decodes into the same WireJob so the steady-state serve
	// loop reuses its entry/view/partial slabs instead of reallocating.
	var (
		job  likelihood.WireJob
		frag []byte
	)
	for {
		tag, payload, err := tr.Recv(0)
		if err != nil {
			if errors.Is(err, fabric.ErrTransportClosed) {
				return true, nil // master tore the world down
			}
			return true, fmt.Errorf("finegrain: worker recv: %w", err)
		}
		switch tag {
		case TagShutdown:
			return true, nil
		case TagRelease:
			if err := tr.Send(0, TagReleased, nil); err != nil {
				return true, nil
			}
			return false, nil
		case TagPing:
			if err := tr.Send(0, TagPong, nil); err != nil {
				return true, nil
			}
		case TagJobFrag:
			frag = append(frag, payload...)
			fabric.Recycle(tr, payload)
		case TagJob:
			buf := payload
			if len(frag) > 0 {
				frag = append(frag, payload...)
				buf = frag
			}
			decErr := likelihood.DecodeWireJobInto(&job, buf)
			frag = frag[:0]
			fabric.Recycle(tr, payload)
			if decErr != nil {
				// Corrupt job frame: the stream is desynced, so close the
				// transport rather than answering — the master's reduction
				// sees a dead rank and restripes. (TagErr is reserved for
				// clean job-level failures from ExecWireJob.)
				tr.Close()
				return true, fmt.Errorf("finegrain: worker job decode: %w", decErr)
			}
			partial, err := eng.ExecWireJob(&job, geom)
			if err != nil {
				_ = tr.Send(0, TagErr, []byte(err.Error()))
				return true, fmt.Errorf("finegrain: worker job exec: %w", err)
			}
			if err := tr.Send(0, TagPartial, partial); err != nil {
				return true, fmt.Errorf("finegrain: worker partial send: %w", err)
			}
		default:
			// Protocol desync mid-session: same policy as the idle loop —
			// close and die so the master restripes around this rank.
			tr.Close()
			return true, fmt.Errorf("finegrain: worker got unexpected tag %d", tag)
		}
	}
}
