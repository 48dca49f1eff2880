package finegrain

import (
	"errors"
	"os"
	"testing"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/gridjob"
	"raxml/internal/rng"
	"raxml/internal/search"
)

// TestRunJobLostVerdictTimesOut pins the job session's liveness rule: a
// lost frame must surface as a dead rank within DispatchTimeout, even
// though a computing worker keeps the link busy with progress frames.
// Here the master's first TagJobContinue vanishes; the worker, parked
// at its replicate boundary, must fall silent so the master's wait
// expires — and must still be alive to ack the release that follows.
func TestRunJobLostVerdictTimesOut(t *testing.T) {
	old := DispatchTimeout
	DispatchTimeout = 400 * time.Millisecond
	t.Cleanup(func() { DispatchTimeout = old })

	m, w := fabric.LinkPair()
	served := make(chan error, 1)
	go func() { served <- ServeSessions(fabric.WorkerTransport(w)) }()
	// Master sends: 1 = TagRunJob, 2 = the first verdict.
	l := fabric.InjectFaults(m, &fabric.FaultPlan{Send: []fabric.Fault{{Class: fabric.FaultDrop, Frame: 2}}})

	pat := makeData(t, 8, 300, 1, 5)
	spec := &gridjob.Spec{
		Kind: gridjob.Bootstrap, Threads: 1, Settings: search.Bootstrap(), Replicates: 3,
		Checkpoint: gridjob.Checkpoint{BsState: rng.New(1).State(), ParsState: rng.New(2).State()},
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunJob(l, pat, spec, func(*gridjob.Checkpoint) error { return nil })
		done <- err
	}()
	select {
	case err := <-done:
		if fabric.AsRankDead(err) == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("RunJob returned %v, want a RankDeadError from the silence deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunJob never returned: progress frames hid the lost verdict")
	}

	// The worker is parked at its boundary: the release stops it there.
	if err := l.Send(TagRelease, nil); err != nil {
		t.Fatal(err)
	}
	fabric.SetLinkRecvDeadline(l, time.Now().Add(5*time.Second))
	for {
		tag, _, err := l.Recv()
		if err != nil {
			t.Fatalf("release drain: %v", err)
		}
		if tag == TagReleased {
			break
		}
	}
	if err := l.Send(TagShutdown, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("worker exited with %v", err)
	}
}
