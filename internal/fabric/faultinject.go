package fabric

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"raxml/internal/rng"
)

// This file is the deterministic fault-injection middleware the chaos
// harness drives: wrappers over Link, Transport and net.Conn that
// apply a *reproducible* schedule of failures — drop frame N, delay
// frame N by D, corrupt a frame, sever the connection after M frames,
// throttle every Kth frame — derived entirely from an integer seed.
// Any chaos failure therefore replays exactly by re-running with the
// printed seed; nothing about the injection depends on wall-clock time
// or scheduling.
//
// The corruption model deserves a note. Real corruption happens on the
// wire, *below* the CRC32C framing, and the hardened stack detects it
// there: the receiver's CRC check fails and the frame surfaces as a
// FrameCorruptError, never as delivered garbage. The Link/Transport
// wrappers sit *above* the framing, so they emulate the post-detection
// view — a corrupt incoming frame yields the FrameCorruptError the
// framing layer would have produced, and a corrupt outgoing frame
// severs the link the way the peer's failed CRC check would. Actually
// flipping payload bytes at this level would model an undetectable
// Byzantine fault no checksum can catch. FaultConn is the wrapper that
// flips real stream bytes beneath the framing, for exercising the CRC
// path itself on TCP sockets.

// FaultClass enumerates the injectable failure modes.
type FaultClass uint8

const (
	// FaultDrop makes one frame vanish in flight: the sender believes
	// it was delivered, the receiver never sees it. Detected by the
	// per-dispatch / handshake deadlines.
	FaultDrop FaultClass = iota
	// FaultDelay delivers one frame late by Fault.Delay.
	FaultDelay
	// FaultCorrupt mangles one frame on the wire. Surfaces as the
	// detection the CRC layer performs: a FrameCorruptError on an
	// incoming frame, a severed link on an outgoing one.
	FaultCorrupt
	// FaultSever kills the connection permanently after Fault.Frame
	// total frames (both directions combined).
	FaultSever
	// FaultStraggle throttles the endpoint: every plan.StraggleEvery-th
	// frame in either direction is delayed by plan.StraggleDelay,
	// modeling a slow rank rather than a dead one.
	FaultStraggle

	numFaultClasses
)

// String names the class for replay logs.
func (c FaultClass) String() string {
	switch c {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	case FaultSever:
		return "sever"
	case FaultStraggle:
		return "straggle"
	}
	return fmt.Sprintf("fault(%d)", int(c))
}

// Fault is one scheduled injection: apply Class to the Frame-th frame
// (1-based) of the direction whose list it sits in.
type Fault struct {
	Class FaultClass
	Frame int64         // 1-based frame ordinal within its direction
	Delay time.Duration // FaultDelay only
}

// FaultPlan is a reproducible injection schedule for one link or peer:
// point faults keyed by frame ordinal per direction, plus an optional
// sever threshold and straggler throttle. The zero plan injects
// nothing.
type FaultPlan struct {
	// Seed identifies the plan for replay (RandomFaultPlan records it;
	// hand-built plans may leave it 0).
	Seed int64
	// Send faults apply to outgoing frames — master→worker when the
	// wrapped endpoint is the master side, the common arrangement.
	Send []Fault
	// Recv faults apply to incoming frames (worker→master partials,
	// acks, pongs).
	Recv []Fault
	// SeverAfter kills the connection once the combined send+recv
	// frame count reaches it (0: never).
	SeverAfter int64
	// StraggleEvery/StraggleDelay throttle every StraggleEvery-th
	// frame in either direction by StraggleDelay (0: no throttle).
	StraggleEvery int64
	StraggleDelay time.Duration
}

// String renders the schedule compactly for failure messages, so a
// chaos log shows exactly which injections were live.
func (p *FaultPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan{seed %d", p.Seed)
	for _, f := range p.Send {
		fmt.Fprintf(&b, ", send[%d]=%s", f.Frame, describeFault(f))
	}
	for _, f := range p.Recv {
		fmt.Fprintf(&b, ", recv[%d]=%s", f.Frame, describeFault(f))
	}
	if p.SeverAfter > 0 {
		fmt.Fprintf(&b, ", sever@%d", p.SeverAfter)
	}
	if p.StraggleEvery > 0 {
		fmt.Fprintf(&b, ", straggle %v/%d", p.StraggleDelay, p.StraggleEvery)
	}
	b.WriteString("}")
	return b.String()
}

func describeFault(f Fault) string {
	if f.Class == FaultDelay {
		return fmt.Sprintf("delay %v", f.Delay)
	}
	return f.Class.String()
}

// RandomFaultPlan derives a deterministic schedule from seed: one to
// three point faults (drop, delay, corrupt) over the first sixteen
// frames, sometimes a sever within the first few dozen, sometimes a
// straggler throttle. The window is sized to the traffic of a grid
// worker link, which carries a few dozen frames per analysis (whole
// jobs, not per-dispatch round trips), so most faults land. Two calls
// with equal seeds build identical plans — the property that makes a
// chaos failure replayable from the seed alone.
func RandomFaultPlan(seed int64) *FaultPlan {
	r := rng.New(seed)
	p := &FaultPlan{Seed: seed}
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		f := Fault{Frame: int64(1 + r.Intn(16))}
		switch r.Intn(3) {
		case 0:
			f.Class = FaultDrop
		case 1:
			f.Class = FaultDelay
			f.Delay = time.Duration(1+r.Intn(20)) * time.Millisecond
		default:
			f.Class = FaultCorrupt
		}
		if r.Intn(2) == 0 {
			p.Send = append(p.Send, f)
		} else {
			p.Recv = append(p.Recv, f)
		}
	}
	if r.Intn(3) == 0 {
		p.SeverAfter = int64(4 + r.Intn(28))
	}
	if r.Intn(3) == 0 {
		p.StraggleEvery = int64(4 + r.Intn(12))
		p.StraggleDelay = time.Duration(200+r.Intn(1800)) * time.Microsecond
	}
	return p
}

// fault returns the point fault scheduled for frame ordinal n in one
// direction's list (nil if none). Plans are tiny, so a linear scan per
// frame costs nothing.
func fault(fs []Fault, n int64) *Fault {
	for i := range fs {
		if fs[i].Frame == n {
			return &fs[i]
		}
	}
	return nil
}

// FaultStats counts injections by class, so harnesses can assert the
// schedule actually fired.
type FaultStats struct {
	counts [numFaultClasses]atomic.Int64
}

// Count returns the number of injections of one class.
func (s *FaultStats) Count(c FaultClass) int64 {
	if int(c) >= len(s.counts) {
		return 0
	}
	return s.counts[c].Load()
}

// Total returns the number of injections across all classes.
func (s *FaultStats) Total() int64 {
	var t int64
	for i := range s.counts {
		t += s.counts[i].Load()
	}
	return t
}

// String summarizes fired injections for logs.
func (s *FaultStats) String() string {
	var parts []string
	for c := FaultClass(0); c < numFaultClasses; c++ {
		if n := s.counts[c].Load(); n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", c, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// ---------------------------------------------------------------------
// Link middleware
// ---------------------------------------------------------------------

// FaultLink wraps a Link with a FaultPlan. It is meant for the master
// side of a worker link (grid.Fleet.LinkWrapper): its Send direction
// is master→worker, its Recv direction worker→master.
type FaultLink struct {
	inner Link
	plan  *FaultPlan
	stats FaultStats

	sent, recvd, total atomic.Int64
	severed            atomic.Bool
}

// InjectFaults wraps l so frames flowing through it suffer plan's
// schedule. The wrapper forwards deadlines and Close to l.
func InjectFaults(l Link, plan *FaultPlan) *FaultLink {
	if plan == nil {
		plan = &FaultPlan{}
	}
	return &FaultLink{inner: l, plan: plan}
}

// InjectStats exposes the injection counters.
func (l *FaultLink) InjectStats() *FaultStats { return &l.stats }

// Plan returns the schedule this link runs.
func (l *FaultLink) Plan() *FaultPlan { return l.plan }

// sever closes the underlying link, emulating the peer machine
// vanishing: both ends' pending and future calls fail, exactly like a
// SIGKILLed worker's socket.
func (l *FaultLink) sever() {
	if l.severed.CompareAndSwap(false, true) {
		l.stats.counts[FaultSever].Add(1)
		l.inner.Close()
	}
}

// tick advances the combined frame counter, applying the sever
// threshold and the straggler throttle shared by both directions; it
// reports false once the link is severed.
func (l *FaultLink) tick() bool {
	n := l.total.Add(1)
	if sa := l.plan.SeverAfter; sa > 0 && n >= sa {
		l.sever()
		return false
	}
	if se := l.plan.StraggleEvery; se > 0 && n%se == 0 {
		l.stats.counts[FaultStraggle].Add(1)
		time.Sleep(l.plan.StraggleDelay)
	}
	return true
}

// Send delivers one frame to the peer, subject to the plan.
func (l *FaultLink) Send(tag byte, payload []byte) error {
	// A severing tick closes the inner link; the Send below then fails
	// the way writing to a vanished peer does.
	l.tick()
	n := l.sent.Add(1)
	if f := fault(l.plan.Send, n); f != nil {
		switch f.Class {
		case FaultDrop:
			// The frame vanishes in flight: the sender sees success.
			l.stats.counts[FaultDrop].Add(1)
			return nil
		case FaultDelay:
			l.stats.counts[FaultDelay].Add(1)
			time.Sleep(f.Delay)
		case FaultCorrupt:
			// The peer's CRC check rejects the mangled frame and treats
			// the stream as dead; emulate that verdict by severing. The
			// frame itself never arrives.
			l.stats.counts[FaultCorrupt].Add(1)
			corruptFrames.Add(1)
			l.sever()
		}
	}
	return l.inner.Send(tag, payload)
}

// Recv blocks for the peer's next frame, subject to the plan.
func (l *FaultLink) Recv() (byte, []byte, error) {
	for {
		tag, payload, err := l.inner.Recv()
		if err != nil {
			return 0, nil, err
		}
		if !l.tick() {
			// The frame crossing the sever threshold goes down with the
			// connection; the caller sees the dead link, not the data.
			return 0, nil, ErrTransportClosed
		}
		n := l.recvd.Add(1)
		f := fault(l.plan.Recv, n)
		if f == nil {
			return tag, payload, nil
		}
		switch f.Class {
		case FaultDrop:
			// Lost in flight: discard and wait for the next frame.
			l.stats.counts[FaultDrop].Add(1)
			continue
		case FaultDelay:
			l.stats.counts[FaultDelay].Add(1)
			time.Sleep(f.Delay)
			return tag, payload, nil
		case FaultCorrupt:
			// Surface the framing layer's verdict on a mangled frame.
			l.stats.counts[FaultCorrupt].Add(1)
			corruptFrames.Add(1)
			return 0, nil, &FrameCorruptError{Tag: tag, Len: uint32(len(payload))}
		default:
			return tag, payload, nil
		}
	}
}

// SetRecvDeadline forwards to the wrapped link, so the hardened
// stack's deadlines keep working under injection.
func (l *FaultLink) SetRecvDeadline(at time.Time) error {
	if SetLinkRecvDeadline(l.inner, at) {
		return nil
	}
	return fmt.Errorf("fabric: wrapped link has no Recv deadline")
}

// Close tears the wrapped link down.
func (l *FaultLink) Close() error { return l.inner.Close() }

// ---------------------------------------------------------------------
// Transport middleware
// ---------------------------------------------------------------------

// FaultTransport wraps a Transport with per-peer FaultPlans — the
// fixed-world twin of FaultLink, for fine-grain tests that run over a
// ChanTransport or TCPTransport directly. Peers without a plan pass
// through untouched. A severed peer stays severed: unlike FaultLink it
// cannot close just one peer's half of a shared endpoint, so it fails
// that peer's calls with a RankDeadError instead.
type FaultTransport struct {
	inner Transport
	plans map[int]*FaultPlan
	stats FaultStats

	peers map[int]*peerFaultState
}

type peerFaultState struct {
	sent, recvd, total atomic.Int64
	severed            atomic.Bool
}

// InjectTransportFaults wraps tr; frames to/from each peer in plans
// suffer that peer's schedule.
func InjectTransportFaults(tr Transport, plans map[int]*FaultPlan) *FaultTransport {
	peers := make(map[int]*peerFaultState, len(plans))
	for p := range plans {
		peers[p] = &peerFaultState{}
	}
	return &FaultTransport{inner: tr, plans: plans, peers: peers}
}

// InjectStats exposes the injection counters (all peers combined);
// Stats stays the Transport-interface passthrough.
func (t *FaultTransport) InjectStats() *FaultStats { return &t.stats }

// Rank returns the wrapped endpoint's rank.
func (t *FaultTransport) Rank() int { return t.inner.Rank() }

// Size returns the wrapped endpoint's group size.
func (t *FaultTransport) Size() int { return t.inner.Size() }

// Stats returns the wrapped endpoint's transport counters.
func (t *FaultTransport) Stats() *TransportStats { return t.inner.Stats() }

// Close closes the wrapped endpoint.
func (t *FaultTransport) Close() error { return t.inner.Close() }

// Recycle forwards buffer recycling so the wrapped transport's free
// lists keep working.
func (t *FaultTransport) Recycle(buf []byte) { Recycle(t.inner, buf) }

// SetRecvDeadline forwards per-peer deadlines.
func (t *FaultTransport) SetRecvDeadline(peer int, at time.Time) error {
	if SetRecvDeadline(t.inner, peer, at) {
		return nil
	}
	return fmt.Errorf("fabric: wrapped transport has no Recv deadlines")
}

// errSevered backs the injected peer-death errors.
var errSevered = fmt.Errorf("fabric: connection severed by fault injection")

func (t *FaultTransport) tick(peer int, st *peerFaultState, plan *FaultPlan) bool {
	n := st.total.Add(1)
	if sa := plan.SeverAfter; sa > 0 && n >= sa {
		if st.severed.CompareAndSwap(false, true) {
			t.stats.counts[FaultSever].Add(1)
		}
		return false
	}
	if se := plan.StraggleEvery; se > 0 && n%se == 0 {
		t.stats.counts[FaultStraggle].Add(1)
		time.Sleep(plan.StraggleDelay)
	}
	return true
}

// Send delivers one frame to peer `to`, subject to its plan.
func (t *FaultTransport) Send(to int, tag byte, payload []byte) error {
	plan := t.plans[to]
	if plan == nil {
		return t.inner.Send(to, tag, payload)
	}
	st := t.peers[to]
	if st.severed.Load() || !t.tick(to, st, plan) {
		return &RankDeadError{Rank: to, Err: errSevered}
	}
	n := st.sent.Add(1)
	if f := fault(plan.Send, n); f != nil {
		switch f.Class {
		case FaultDrop:
			t.stats.counts[FaultDrop].Add(1)
			return nil
		case FaultDelay:
			t.stats.counts[FaultDelay].Add(1)
			time.Sleep(f.Delay)
		case FaultCorrupt:
			t.stats.counts[FaultCorrupt].Add(1)
			corruptFrames.Add(1)
			st.severed.Store(true)
			return &RankDeadError{Rank: to, Err: errSevered}
		}
	}
	return t.inner.Send(to, tag, payload)
}

// Recv blocks for the next frame from peer `from`, subject to its plan.
func (t *FaultTransport) Recv(from int) (byte, []byte, error) {
	plan := t.plans[from]
	if plan == nil {
		return t.inner.Recv(from)
	}
	st := t.peers[from]
	for {
		if st.severed.Load() {
			return 0, nil, &RankDeadError{Rank: from, Err: errSevered}
		}
		tag, payload, err := t.inner.Recv(from)
		if err != nil {
			return 0, nil, err
		}
		if !t.tick(from, st, plan) {
			return 0, nil, &RankDeadError{Rank: from, Err: errSevered}
		}
		n := st.recvd.Add(1)
		f := fault(plan.Recv, n)
		if f == nil {
			return tag, payload, nil
		}
		switch f.Class {
		case FaultDrop:
			t.stats.counts[FaultDrop].Add(1)
			continue
		case FaultDelay:
			t.stats.counts[FaultDelay].Add(1)
			time.Sleep(f.Delay)
			return tag, payload, nil
		case FaultCorrupt:
			t.stats.counts[FaultCorrupt].Add(1)
			corruptFrames.Add(1)
			return 0, nil, &RankDeadError{Rank: from, Err: &FrameCorruptError{Tag: tag, Len: uint32(len(payload))}}
		default:
			return tag, payload, nil
		}
	}
}

// ---------------------------------------------------------------------
// Wire-level corruption
// ---------------------------------------------------------------------

// FaultConn wraps a net.Conn and flips one byte at chosen absolute
// offsets of the incoming byte stream — corruption *below* the framing
// layer, which is exactly what the per-frame CRC32C exists to catch.
// Offsets are stream positions, so the corruption is deterministic
// regardless of how reads are chunked.
type FaultConn struct {
	net.Conn
	// CorruptAt holds absolute read-stream offsets whose byte is
	// XOR-flipped (0x80) as it passes through.
	CorruptAt []int64

	off     int64
	Flipped atomic.Int64 // bytes actually flipped so far
}

// Read fills p from the wrapped connection, flipping any byte whose
// stream offset is scheduled.
func (c *FaultConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		lo := c.off
		c.off += int64(n)
		for _, at := range c.CorruptAt {
			if at >= lo && at < c.off {
				p[at-lo] ^= 0x80
				c.Flipped.Add(1)
			}
		}
	}
	return n, err
}
