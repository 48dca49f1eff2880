package grid

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
)

// dialTCPWorkers starts n in-process grid workers that dial a loopback
// star listener, and waits until the fleet has admitted them.
func dialTCPWorkers(t *testing.T, fleet *Fleet, n int) {
	t.Helper()
	ln, err := fabric.ListenStar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	fleet.AcceptFrom(ln)
	for i := 0; i < n; i++ {
		go func() {
			link, err := fabric.DialStar(ln.Addr(), 0)
			if err != nil {
				return
			}
			defer link.Close()
			finegrain.ServeSessions(fabric.WorkerTransport(link))
		}()
	}
	if !fleet.WaitAlive(n, 10*time.Second) {
		t.Fatal("workers never dialed in")
	}
}

// runCaptured runs the workload over fleet (nil: master-local) and
// returns the result, the checkpoint store and the trace.
func runCaptured(t *testing.T, a *Analysis, fleet *Fleet, tracer *Tracer, trace *bytes.Buffer) (*Result, map[string][]byte) {
	t.Helper()
	g := New(Config{Concurrency: 2, Fleet: fleet, Tracer: tracer})
	res, err := a.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatalf("grid run: %v\ntrace:\n%s", err, trace.String())
	}
	return res, g.Checkpoints()
}

// TestRemoteJobsMatchMasterLocal pins whole-job shipping: one ML job
// and one bootstrap batch run on leased ranks — over chan and over TCP
// links — must produce byte-identical Newick, identical likelihood bits
// and byte-identical checkpoints to the same jobs run master-local,
// because both run the same job body from the same exactly encoded
// inputs.
func TestRemoteJobsMatchMasterLocal(t *testing.T) {
	a := testAnalysis(t)
	a.Starts, a.Replicates = 1, 5
	var localTrace bytes.Buffer
	want, wantCkpt := runCaptured(t, a, nil, NewTracer(&localTrace), &localTrace)

	for _, mode := range []string{"chan", "tcp"} {
		t.Run(mode, func(t *testing.T) {
			var trace bytes.Buffer
			tracer := NewTracer(&trace)
			fleet := NewFleet(tracer)
			if mode == "chan" {
				fleet.SpawnLocal(2)
			} else {
				dialTCPWorkers(t, fleet, 2)
			}
			got, gotCkpt := runCaptured(t, a, fleet, tracer, &trace)
			fleet.Shutdown()

			for _, job := range []string{"ml/0", "bs/0"} {
				if !strings.Contains(trace.String(), fmt.Sprintf(`"ev":"lease","job":%q`, job)) {
					t.Errorf("job %s never ran on a leased rank:\n%s", job, trace.String())
				}
			}
			if len(got.Starts) != 1 || len(want.Starts) != 1 {
				t.Fatalf("starts: got %d, want 1", len(got.Starts))
			}
			if got.Starts[0].Newick != want.Starts[0].Newick {
				t.Errorf("ML tree differs\n got %s\nwant %s", got.Starts[0].Newick, want.Starts[0].Newick)
			}
			if g, w := math.Float64bits(got.Starts[0].LogLikelihood), math.Float64bits(want.Starts[0].LogLikelihood); g != w {
				t.Errorf("ML lnL bits %#x, want %#x", g, w)
			}
			if len(got.Replicates) != len(want.Replicates) {
				t.Fatalf("%d replicates, want %d", len(got.Replicates), len(want.Replicates))
			}
			if !bytes.Equal(gotCkpt["bs/0"], wantCkpt["bs/0"]) {
				t.Error("bootstrap checkpoint (replicate Newick and lnL bits) differs from master-local")
			}
			for i := range want.Replicates {
				if g, w := math.Float64bits(got.Replicates[i].LogLikelihood), math.Float64bits(want.Replicates[i].LogLikelihood); g != w {
					t.Errorf("replicate %d lnL bits %#x, want %#x", i, g, w)
				}
			}
			if got.ConsensusNewick != want.ConsensusNewick || got.BestAnnotated != want.BestAnnotated {
				t.Error("consensus or annotated best tree differs from master-local")
			}
		})
	}
}

// TestGridLeaseBudgetHeldConcurrently is the regression test for the
// lease-budget race: with MaxLeasedRanks 1, two concurrent jobs and
// three idle workers, the number of ranks the grid holds *at the same
// time* must never exceed 1. Many jobs take and return a lease as fast
// as they can, so two budget checks racing ahead of both reservations
// would show. Checking each lease's size alone (TestGridMaxLeasedRanks)
// cannot see two jobs that each lease one rank over a budget of one.
func TestGridLeaseBudgetHeldConcurrently(t *testing.T) {
	fleet := NewFleet(nil)
	fleet.SpawnLocal(3)
	defer fleet.Shutdown()
	g := New(Config{Concurrency: 2, Fleet: fleet, MaxLeasedRanks: 1})
	var mu sync.Mutex
	cur, peak, leases := 0, 0, 0
	for i := 0; i < 200; i++ {
		g.Add(&Job{ID: fmt.Sprintf("j%d", i), Run: func(ctx *JobContext) error {
			w := g.leaseRank(ctx.ID())
			if w == nil {
				return nil
			}
			mu.Lock()
			cur++
			leases++
			peak = max(peak, cur)
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			cur--
			mu.Unlock()
			g.returnRank(w, true)
			return nil
		}})
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if peak > 1 || leases == 0 {
		t.Fatalf("peak %d concurrent leases over %d leases, budget is 1", peak, leases)
	}
}
