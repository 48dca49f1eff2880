package grid

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
)

// BenchmarkGridSchedule measures the scheduler's own overhead — job
// bookkeeping, lease/probe/release handshakes, trace-less transitions —
// over a 3-worker chan fleet and a 40-job DAG shaped like a bootstrap
// analysis (parallel roots, a fan-in check, a sink), with no likelihood
// work inside the jobs.
func BenchmarkGridSchedule(b *testing.B) {
	fleet := NewFleet(nil)
	fleet.SpawnLocal(3)
	defer fleet.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		g := New(Config{Fleet: fleet, Concurrency: 4})
		var roots []string
		for i := 0; i < 38; i++ {
			id := fmt.Sprintf("job/%d", i)
			roots = append(roots, id)
			g.Add(&Job{ID: id, Run: func(ctx *JobContext) error {
				ws := fleet.Lease(ctx.ID(), 1)
				fleet.ReleaseAll(ws)
				ctx.Save([]byte{1})
				return nil
			}})
		}
		g.Add(&Job{ID: "check", Deps: roots, Run: func(*JobContext) error { return nil }})
		g.Add(&Job{ID: "sink", Deps: []string{"check"}, Run: func(*JobContext) error { return nil }})
		if err := g.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// countLink counts the frames and payload bytes crossing a fleet link
// in both directions.
type countLink struct {
	fabric.Link
	frames, bytes *atomic.Int64
}

func (l *countLink) Send(tag byte, payload []byte) error {
	l.frames.Add(1)
	l.bytes.Add(int64(len(payload)))
	return l.Link.Send(tag, payload)
}

func (l *countLink) Recv() (byte, []byte, error) {
	tag, payload, err := l.Link.Recv()
	if err == nil {
		l.frames.Add(1)
		l.bytes.Add(int64(len(payload)))
	}
	return tag, payload, err
}

func (l *countLink) SetRecvDeadline(at time.Time) error {
	fabric.SetLinkRecvDeadline(l.Link, at)
	return nil
}

// BenchmarkGridBootstrapJob measures one grid bootstrap-batch job (5
// rapid-bootstrap replicates of the 10×400 test alignment, plus its
// bootstop check and consensus) shipped whole to a 1-rank fleet, over
// chan and over loopback-TCP links, and reports the wire traffic the
// job costs: frames/op and wire_bytes/op.
func BenchmarkGridBootstrapJob(b *testing.B) {
	a := testAnalysis(b)
	a.Starts, a.Replicates = 0, 5
	for _, mode := range []string{"chan", "tcp"} {
		b.Run(mode, func(b *testing.B) {
			var frames, bytes atomic.Int64
			fleet := NewFleet(nil)
			fleet.LinkWrapper = func(_ int, l fabric.Link) fabric.Link {
				return &countLink{Link: l, frames: &frames, bytes: &bytes}
			}
			if mode == "chan" {
				fleet.SpawnLocal(1)
			} else {
				ln, err := fabric.ListenStar("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer ln.Close()
				fleet.AcceptFrom(ln)
				go func() {
					link, err := fabric.DialStar(ln.Addr(), 0)
					if err != nil {
						return
					}
					defer link.Close()
					finegrain.ServeSessions(fabric.WorkerTransport(link))
				}()
				if !fleet.WaitAlive(1, 10*time.Second) {
					b.Fatal("worker never dialed in")
				}
			}
			defer fleet.Shutdown()
			frames.Store(0)
			bytes.Store(0)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				g := New(Config{Fleet: fleet, Concurrency: 1})
				if _, err := a.Build(g); err != nil {
					b.Fatal(err)
				}
				if err := g.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(frames.Load())/float64(b.N), "frames/op")
			b.ReportMetric(float64(bytes.Load())/float64(b.N), "wire_bytes/op")
		})
	}
}
