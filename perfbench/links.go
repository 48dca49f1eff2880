package main

import (
	"errors"
	"sync/atomic"
	"time"

	"raxml/internal/fabric"
)

// linkCounts accumulate the traffic of one or more wrapped links.
type linkCounts struct {
	frames atomic.Int64 // frames sent plus frames received
	bytes  atomic.Int64 // payload bytes of those frames
	sendNs atomic.Int64 // time spent inside Send
	recvNs atomic.Int64 // time spent blocked inside Recv
	busyNs atomic.Int64 // worker side: Recv return to the next Send
}

// linkTotals is a plain snapshot of linkCounts.
type linkTotals struct {
	Frames, Bytes                 int64
	SendS, RecvWaitS, WorkerBusyS float64
}

func (c *linkCounts) totals() linkTotals {
	return linkTotals{
		Frames:      c.frames.Load(),
		Bytes:       c.bytes.Load(),
		SendS:       time.Duration(c.sendNs.Load()).Seconds(),
		RecvWaitS:   time.Duration(c.recvNs.Load()).Seconds(),
		WorkerBusyS: time.Duration(c.busyNs.Load()).Seconds(),
	}
}

func (t linkTotals) minus(o linkTotals) linkTotals {
	return linkTotals{
		Frames:      t.Frames - o.Frames,
		Bytes:       t.Bytes - o.Bytes,
		SendS:       t.SendS - o.SendS,
		RecvWaitS:   t.RecvWaitS - o.RecvWaitS,
		WorkerBusyS: t.WorkerBusyS - o.WorkerBusyS,
	}
}

// countingLink is the master-side wrapper around a fleet link: it counts
// frames and payload bytes both ways and times Send and the Recv wait.
type countingLink struct {
	fabric.Link
	c *linkCounts
}

func (l *countingLink) Send(tag byte, payload []byte) error {
	t0 := time.Now()
	err := l.Link.Send(tag, payload)
	l.c.sendNs.Add(int64(time.Since(t0)))
	if err == nil {
		l.c.frames.Add(1)
		l.c.bytes.Add(int64(len(payload)))
	}
	return err
}

func (l *countingLink) Recv() (byte, []byte, error) {
	t0 := time.Now()
	tag, payload, err := l.Link.Recv()
	l.c.recvNs.Add(int64(time.Since(t0)))
	if err == nil {
		l.c.frames.Add(1)
		l.c.bytes.Add(int64(len(payload)))
	}
	return tag, payload, err
}

// errNoDeadline reports a wrapped link that cannot bound Recv waits;
// fabric.SetLinkRecvDeadline then reports false, as it would unwrapped.
var errNoDeadline = errors.New("perfbench: wrapped link has no recv deadline")

// SetRecvDeadline forwards to the wrapped link. Without it the fleet's
// probe, release and dispatch deadlines would silently stop applying.
func (l *countingLink) SetRecvDeadline(at time.Time) error {
	d, ok := l.Link.(fabric.LinkDeadliner)
	if !ok {
		return errNoDeadline
	}
	return d.SetRecvDeadline(at)
}

// busyLink is the worker-side wrapper: it accumulates the time from a
// Recv returning to the next Send, the worker's compute time per
// request, measured where the work happens.
type busyLink struct {
	fabric.Link
	c        *linkCounts
	lastRecv atomic.Int64 // UnixNano of the latest Recv return, 0 after a Send
}

func (l *busyLink) Recv() (byte, []byte, error) {
	tag, payload, err := l.Link.Recv()
	if err == nil {
		l.lastRecv.Store(time.Now().UnixNano())
	}
	return tag, payload, err
}

func (l *busyLink) Send(tag byte, payload []byte) error {
	if t := l.lastRecv.Swap(0); t != 0 {
		l.c.busyNs.Add(time.Now().UnixNano() - t)
	}
	return l.Link.Send(tag, payload)
}

func (l *busyLink) SetRecvDeadline(at time.Time) error {
	d, ok := l.Link.(fabric.LinkDeadliner)
	if !ok {
		return errNoDeadline
	}
	return d.SetRecvDeadline(at)
}
