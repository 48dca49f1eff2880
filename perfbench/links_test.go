package main

import (
	"errors"
	"os"
	"testing"
	"time"

	"raxml/internal/fabric"
)

func TestCountingLinkCountsExactly(t *testing.T) {
	m, w := fabric.LinkPair()
	defer m.Close()
	defer w.Close()
	var mc linkCounts
	master := &countingLink{Link: m, c: &mc}

	sizes := []int{0, 1, 17, 4096}
	for i, n := range sizes {
		if err := master.Send(byte(i), make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	for range sizes {
		tag, p, err := w.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Send(tag, append(p, 0, 0)); err != nil { // reply 2 bytes longer
			t.Fatal(err)
		}
	}
	for i, n := range sizes {
		tag, p, err := master.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if int(tag) != i || len(p) != n+2 {
			t.Fatalf("reply %d: tag %d, %d bytes", i, tag, len(p))
		}
	}
	got := mc.totals()
	// 4096+17+1+0 sent, each echoed with 2 more bytes.
	if got.Frames != 8 || got.Bytes != 2*4114+8 {
		t.Errorf("counted %d frames, %d bytes; want 8 frames, %d bytes", got.Frames, got.Bytes, 2*4114+8)
	}
	if got.SendS <= 0 || got.RecvWaitS <= 0 {
		t.Errorf("send %gs, recv wait %gs: both should be timed", got.SendS, got.RecvWaitS)
	}
}

func TestWrappersForwardRecvDeadline(t *testing.T) {
	m, w := fabric.LinkPair()
	defer m.Close()
	defer w.Close()
	for name, l := range map[string]fabric.Link{
		"master": &countingLink{Link: m, c: &linkCounts{}},
		"worker": &busyLink{Link: w, c: &linkCounts{}},
	} {
		if !fabric.SetLinkRecvDeadline(l, time.Now().Add(20*time.Millisecond)) {
			t.Fatalf("%s wrapper: deadline not accepted", name)
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := l.Recv()
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s wrapper: Recv returned %v, want a deadline error", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s wrapper: Recv ignored the deadline", name)
		}
		fabric.SetLinkRecvDeadline(l, time.Time{})
	}
}

// noDeadlineLink is a link without deadline support.
type noDeadlineLink struct{ fabric.Link }

func TestWrapperOfLinkWithoutDeadlineReportsNone(t *testing.T) {
	m, w := fabric.LinkPair()
	defer m.Close()
	defer w.Close()
	l := &countingLink{Link: noDeadlineLink{m}, c: &linkCounts{}}
	if fabric.SetLinkRecvDeadline(l, time.Now()) {
		t.Error("deadline reported as set on a link that has none")
	}
}

func TestBusyLinkTimesRecvToReply(t *testing.T) {
	m, w := fabric.LinkPair()
	defer m.Close()
	defer w.Close()
	var wc linkCounts
	worker := &busyLink{Link: w, c: &wc}
	if err := m.Send(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := worker.Recv(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the "work"
	if err := worker.Send(2, nil); err != nil {
		t.Fatal(err)
	}
	// An unsolicited send (no Recv before it) adds nothing.
	if err := worker.Send(3, nil); err != nil {
		t.Fatal(err)
	}
	if busy := wc.totals().WorkerBusyS; busy < 0.02 || busy > 1 {
		t.Errorf("busy = %gs, want about 0.02s", busy)
	}
}
