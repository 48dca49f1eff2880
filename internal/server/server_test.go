package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"raxml/internal/core"
	"raxml/internal/grid"
	"raxml/internal/msa"
	"raxml/internal/search"
	"raxml/internal/seqgen"
)

// testAlignment renders the standard small test alignment (10 taxa x
// 400 chars, seed 42) as PHYLIP bytes — the submission payload.
func testAlignment(t testing.TB) []byte {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 10, Chars: 400, Seed: 42, TreeScale: 0.5, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := msa.WritePHYLIP(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testParams is the standard submission: 2 ML starts + 10 rapid
// bootstraps in batches of 5, fast SPR preset.
func testParams(seedX int64) RunParams {
	return RunParams{
		Model:         "GTRCAT",
		Starts:        2,
		Bootstraps:    10,
		Batch:         5,
		SeedParsimony: 123,
		SeedBootstrap: seedX,
		FastSearch:    true,
	}
}

var (
	refMu    sync.Mutex
	refCache = map[int64]*grid.Result{}
)

// refResult runs the same workload one-shot on a master-local grid —
// the serial reference the server's results must match at 1e-10.
func refResult(t testing.TB, align []byte, seedX int64) *grid.Result {
	t.Helper()
	refMu.Lock()
	defer refMu.Unlock()
	if res, ok := refCache[seedX]; ok {
		return res
	}
	a, err := msa.Sniff(align)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	fast := search.Fast()
	analysis := &grid.Analysis{
		Pat: pat,
		Opts: core.Options{
			Bootstraps:       10,
			Workers:          1,
			SeedParsimony:    123,
			SeedBootstrap:    seedX,
			Model:            core.GTRCAT,
			EmpiricalFreqs:   true,
			ThoroughSettings: &fast,
		},
		Starts:     2,
		Replicates: 10,
		Batch:      5,
	}
	g := grid.New(grid.Config{Concurrency: 1})
	res, err := analysis.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	refCache[seedX] = res
	return res
}

// newTestServer builds a server over a fresh in-process fleet.
func newTestServer(t testing.TB, ranks int, cfg Config) (*Server, *grid.Fleet) {
	t.Helper()
	fleet := grid.NewFleet(nil)
	if ranks > 0 {
		fleet.SpawnLocal(ranks)
	}
	cfg.Fleet = fleet
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Shutdown)
	return s, fleet
}

// waitState polls until the run reaches a terminal-or-wanted state.
func waitState(t testing.TB, run *Run, want RunState) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := run.State()
		if st == want {
			return
		}
		if st == StateFailed && want != StateFailed {
			run.mu.Lock()
			msg := run.errMsg
			run.mu.Unlock()
			t.Fatalf("run %s failed: %s", run.ID, msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s stuck in %s, want %s", run.ID, run.State(), want)
}

// waitEvent polls until the run's event log contains the given event.
func waitEvent(t testing.TB, run *Run, ev string) {
	t.Helper()
	needle := []byte(fmt.Sprintf("%q:%q", "ev", ev))
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if bytes.Contains(run.log.dump(), needle) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never emitted %q", run.ID, ev)
}

// checkRunMatches compares a finished run's artifacts to the reference.
func checkRunMatches(t *testing.T, s *Server, run *Run, want *grid.Result, label string) {
	t.Helper()
	run.mu.Lock()
	lnl := run.bestLnL
	arts := run.artifacts
	run.mu.Unlock()
	if d := math.Abs(lnl-want.Best.LogLikelihood) / math.Abs(want.Best.LogLikelihood); d > 1e-10 {
		t.Errorf("%s: best lnL %.12f vs reference %.12f", label, lnl, want.Best.LogLikelihood)
	}
	get := func(name string) string {
		hash, ok := arts[name]
		if !ok {
			t.Fatalf("%s: missing artifact %q (have %v)", label, name, arts)
		}
		data, err := s.blobs.Get(hash)
		if err != nil {
			t.Fatalf("%s: artifact %q: %v", label, name, err)
		}
		return string(data)
	}
	if got := get("bestTree"); got != want.Best.Newick+"\n" {
		t.Errorf("%s: best tree differs\n got %s\nwant %s", label, got, want.Best.Newick)
	}
	if got := get("consensus"); got != want.ConsensusNewick+"\n" {
		t.Errorf("%s: consensus differs\n got %s\nwant %s", label, got, want.ConsensusNewick)
	}
	if want.BestAnnotated != "" {
		if got := get("bipartitions"); got != want.BestAnnotated+"\n" {
			t.Errorf("%s: annotated best tree differs", label)
		}
	}
}

// TestServerConcurrentRunsMatchReference is the core acceptance: two
// concurrent analyses from different tenants share one fleet under
// per-tenant rank budgets, and each reproduces its one-shot serial
// reference exactly.
func TestServerConcurrentRunsMatchReference(t *testing.T) {
	align := testAlignment(t)
	s, _ := newTestServer(t, 3, Config{MaxRunning: 2, MaxRunningPerTenant: 1})

	runA, createdA, err := s.Submit(Submission{Alignment: align, Params: testParams(456), Tenant: "alice"})
	if err != nil || !createdA {
		t.Fatalf("submit A: created=%v err=%v", createdA, err)
	}
	runB, createdB, err := s.Submit(Submission{Alignment: align, Params: testParams(789), Tenant: "bob"})
	if err != nil || !createdB {
		t.Fatalf("submit B: created=%v err=%v", createdB, err)
	}
	if runA.ID == runB.ID {
		t.Fatalf("different seeds produced the same run ID %s", runA.ID)
	}
	waitState(t, runA, StateDone)
	waitState(t, runB, StateDone)
	checkRunMatches(t, s, runA, refResult(t, align, 456), "alice/456")
	checkRunMatches(t, s, runB, refResult(t, align, 789), "bob/789")

	// The runs' grid jobs shared one fleet: their IDs are namespaced by
	// run, so both streams stayed distinguishable.
	if !strings.Contains(string(runA.log.dump()), runA.ID+"/ml/0") {
		t.Errorf("run A events lack namespaced job IDs:\n%s", runA.log.dump())
	}
}

// TestServerDedupAndWarmCache pins the two cache layers: an identical
// resubmission is deduplicated onto the existing run (results cache),
// and a new run over an already-seen alignment hits the warm pattern
// and start-tree caches instead of redoing cold setup.
func TestServerDedupAndWarmCache(t *testing.T) {
	align := testAlignment(t)
	s, _ := newTestServer(t, 2, Config{MaxRunning: 1})

	run1, _, err := s.Submit(Submission{Alignment: align, Params: testParams(456), Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, run1, StateDone)
	if hits := s.cache.Hits(nsPatterns); hits != 0 {
		t.Errorf("first run hit the pattern cache %d times, want 0", hits)
	}

	// Identical resubmission: same deterministic ID, no new work.
	run2, created, err := s.Submit(Submission{Alignment: align, Params: testParams(456), Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if created || run2 != run1 {
		t.Errorf("identical resubmission not deduplicated (created=%v)", created)
	}
	if n := s.metrics.dedupHits.Load(); n != 1 {
		t.Errorf("dedup counter %d, want 1", n)
	}

	// Same alignment + parsimony seed, new bootstrap seed: fresh run,
	// warm caches hit (1 pattern compression, 2 ML start trees).
	run3, created, err := s.Submit(Submission{Alignment: align, Params: testParams(999), Tenant: "alice"})
	if err != nil || !created {
		t.Fatalf("submit with new seed: created=%v err=%v", created, err)
	}
	waitState(t, run3, StateDone)
	if hits := s.cache.Hits(nsPatterns); hits != 1 {
		t.Errorf("pattern cache hits %d, want 1", hits)
	}
	if hits := s.cache.Hits(nsStartTree); hits != 2 {
		t.Errorf("start-tree cache hits %d, want 2", hits)
	}
	checkRunMatches(t, s, run3, refResult(t, align, 999), "warm/999")

	stats := s.Stats()
	cache := stats["cache"].(map[string]CacheStats)
	if cache[nsPatterns].Hits != 1 || cache[nsPatterns].Entries != 1 {
		t.Errorf("stats cache counters off: %+v", cache[nsPatterns])
	}
}

// TestWarmCacheBoundedAcrossRuns: every run with a new parsimony seed
// puts its start tree under a new key, so without a bound the
// start-tree namespace grows with every completed run. After 100
// distinct-seed runs it holds at most the cap, while the one alignment
// the runs share keeps hitting the pattern namespace.
func TestWarmCacheBoundedAcrossRuns(t *testing.T) {
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 6, Chars: 120, Seed: 5, TreeScale: 0.5, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := msa.WritePHYLIP(&buf, a); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, 1, Config{MaxRunning: 2})
	const runs = 100
	for i := 0; i < runs; i++ {
		p := RunParams{Model: "GTRCAT", Starts: 1, Batch: 1, SeedParsimony: int64(1000 + i), SeedBootstrap: 7, FastSearch: true}
		run, _, err := s.Submit(Submission{Alignment: buf.Bytes(), Params: p, Tenant: "t"})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, run, StateDone)
	}
	stats := s.cache.Stats()
	if st := stats[nsStartTree]; st.Misses < runs || st.Entries > warmCacheEntries || st.Entries == 0 {
		t.Errorf("start-tree namespace after %d distinct-seed runs: %+v, want at most %d entries", runs, st, warmCacheEntries)
	}
	if st := stats[nsPatterns]; st.Entries != 1 || st.Hits != runs-1 {
		t.Errorf("pattern namespace: %+v, want 1 entry hit by every run after the first", st)
	}
}

// TestWarmCacheEvictsLeastRecentlyUsed: past the cap, the entry
// evicted is the one least recently put or hit.
func TestWarmCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewWarmCache()
	for i := 0; i < warmCacheEntries; i++ {
		c.Put("ns", strconv.Itoa(i), i)
	}
	if _, ok := c.Get("ns", "0"); !ok { // 0 becomes the most recent
		t.Fatal("entry 0 missing before the cap was reached")
	}
	c.Put("ns", "new", -1) // evicts 1, the least recently used
	if _, ok := c.Get("ns", "1"); ok {
		t.Error("least recently used entry 1 survived an insert past the cap")
	}
	for _, k := range []string{"0", "2", "new"} {
		if _, ok := c.Get("ns", k); !ok {
			t.Errorf("entry %s evicted, want kept", k)
		}
	}
	if n := c.Stats()["ns"].Entries; n != warmCacheEntries {
		t.Errorf("%d entries, want the cap %d", n, warmCacheEntries)
	}
}

// stubExecute replaces the analysis body with a gate so admission-order
// tests control exactly when each "run" finishes.
func stubExecute(s *Server) (started chan string, release chan struct{}) {
	started = make(chan string, 16)
	release = make(chan struct{})
	s.execute = func(r *Run) error {
		started <- r.ID
		<-release
		return nil
	}
	return started, release
}

func nextStarted(t *testing.T, started chan string) string {
	t.Helper()
	select {
	case id := <-started:
		return id
	case <-time.After(10 * time.Second):
		t.Fatal("no run started within 10s")
		return ""
	}
}

// TestTenantFairShare pins admission control under contention: tenant a
// floods three submissions, tenant b submits one; b must run before a's
// backlog drains (round-robin across tenants, FIFO within a tenant).
func TestTenantFairShare(t *testing.T) {
	align := testAlignment(t)
	s, _ := newTestServer(t, 0, Config{MaxRunning: 1, MaxRunningPerTenant: 1})
	started, release := stubExecute(s)

	var ids []string
	for i, sub := range []Submission{
		{Alignment: align, Params: testParams(101), Tenant: "a"},
		{Alignment: align, Params: testParams(102), Tenant: "a"},
		{Alignment: align, Params: testParams(103), Tenant: "a"},
		{Alignment: align, Params: testParams(201), Tenant: "b"},
	} {
		run, created, err := s.Submit(sub)
		if err != nil || !created {
			t.Fatalf("submit %d: created=%v err=%v", i, created, err)
		}
		ids = append(ids, run.ID)
	}
	a1, a2, a3, b1 := ids[0], ids[1], ids[2], ids[3]

	var order []string
	for i := 0; i < 4; i++ {
		order = append(order, nextStarted(t, started))
		release <- struct{}{}
	}
	if order[0] != a1 {
		t.Errorf("first start %s, want a's first submission %s", order[0], a1)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos[b1] > pos[a3] {
		t.Errorf("tenant b starved: order %v (b1=%s a3=%s)", order, b1, a3)
	}
	if pos[a2] > pos[a3] {
		t.Errorf("tenant a's queue not FIFO: order %v", order)
	}
}

// TestPerTenantRunningCap: with two global slots but a per-tenant cap of
// one, a tenant's second submission must wait even while a slot is free.
func TestPerTenantRunningCap(t *testing.T) {
	align := testAlignment(t)
	s, _ := newTestServer(t, 0, Config{MaxRunning: 2, MaxRunningPerTenant: 1})
	started, release := stubExecute(s)

	runA1, _, _ := s.Submit(Submission{Alignment: align, Params: testParams(101), Tenant: "a"})
	runA2, _, _ := s.Submit(Submission{Alignment: align, Params: testParams(102), Tenant: "a"})
	runB1, _, _ := s.Submit(Submission{Alignment: align, Params: testParams(201), Tenant: "b"})

	got := map[string]bool{nextStarted(t, started): true, nextStarted(t, started): true}
	if !got[runA1.ID] || !got[runB1.ID] {
		t.Errorf("first wave %v, want a1+b1 (%s, %s)", got, runA1.ID, runB1.ID)
	}
	if runA2.State() != StateQueued {
		t.Errorf("a2 state %s, want queued (per-tenant cap)", runA2.State())
	}
	// Release the first wave (either order); only then may a2 start.
	release <- struct{}{}
	release <- struct{}{}
	if id := nextStarted(t, started); id != runA2.ID {
		t.Errorf("third start %s, want a2 %s", id, runA2.ID)
	}
	release <- struct{}{}
	waitState(t, runA2, StateDone)
}

// TestCancelWhileQueued: a queued run leaves its tenant queue without
// ever executing, its event stream closing with run-canceled.
func TestCancelWhileQueued(t *testing.T) {
	align := testAlignment(t)
	s, _ := newTestServer(t, 0, Config{MaxRunning: 1})
	started, release := stubExecute(s)

	run1, _, _ := s.Submit(Submission{Alignment: align, Params: testParams(101), Tenant: "a"})
	run2, _, _ := s.Submit(Submission{Alignment: align, Params: testParams(102), Tenant: "a"})
	nextStarted(t, started)

	if err := s.Cancel(run2.ID); err != nil {
		t.Fatal(err)
	}
	if run2.State() != StateCanceled {
		t.Fatalf("canceled queued run in state %s", run2.State())
	}
	if _, done := run2.log.since(0); !done {
		t.Error("canceled run's event stream not closed")
	}
	if err := s.Cancel(run2.ID); err == nil {
		t.Error("double cancel did not error")
	}

	run3, _, _ := s.Submit(Submission{Alignment: align, Params: testParams(103), Tenant: "a"})
	release <- struct{}{}
	if id := nextStarted(t, started); id != run3.ID {
		t.Errorf("after cancel, next start %s, want %s (run2 must not run)", id, run3.ID)
	}
	release <- struct{}{}
	waitState(t, run1, StateDone)
	waitState(t, run3, StateDone)
}

// TestCancelMidRunAndResume: canceling a running analysis unwinds it at
// a checkpoint boundary (ranks back in the free pool, checkpoints
// retained), and resubmitting the same content resumes from those
// checkpoints to the exact reference result; once done, the run drops
// them.
func TestCancelMidRunAndResume(t *testing.T) {
	align := testAlignment(t)
	s, fleet := newTestServer(t, 2, Config{MaxRunning: 1})

	sub := Submission{Alignment: align, Params: testParams(456), Tenant: "alice"}
	run, _, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, run, "replicate")
	if err := s.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateCanceled)
	run.mu.Lock()
	ncp := len(run.checkpoints)
	run.mu.Unlock()
	if ncp == 0 {
		t.Fatal("canceled run kept no checkpoints")
	}
	_, alive, free, leased, _ := fleet.Stats()
	if leased != 0 || free != alive {
		t.Fatalf("fleet not drained after cancel: alive=%d free=%d leased=%d", alive, free, leased)
	}

	// Resubmit: the canceled run re-enters the queue under the same ID
	// and finishes from its checkpoints, matching the reference exactly.
	run2, created, err := s.Submit(sub)
	if err != nil || !created || run2 != run {
		t.Fatalf("resubmit after cancel: run2=%p run=%p created=%v err=%v", run2, run, created, err)
	}
	waitState(t, run2, StateDone)
	checkRunMatches(t, s, run2, refResult(t, align, 456), "cancel-resume")
	run2.mu.Lock()
	ncp = len(run2.checkpoints)
	run2.mu.Unlock()
	if ncp != 0 {
		t.Errorf("done run still holds %d checkpoints", ncp)
	}
}

// TestDrainPersistsAndResumes: SIGTERM-drain semantics — a running
// analysis is canceled at a checkpoint boundary, re-queued, persisted to
// disk with its checkpoints, and a NEW server process over the same data
// directory picks it back up and finishes it to the exact reference.
func TestDrainPersistsAndResumes(t *testing.T) {
	align := testAlignment(t)
	dataDir := t.TempDir()
	s, fleet := newTestServer(t, 2, Config{MaxRunning: 1, DataDir: dataDir})

	run, _, err := s.Submit(Submission{Alignment: align, Params: testParams(456), Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, run, "replicate")
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := run.State(); st != StateQueued {
		t.Fatalf("drained run in state %s, want queued", st)
	}
	if _, _, _, leased, _ := fleet.Stats(); leased != 0 {
		t.Fatalf("fleet still has %d leased ranks after drain", leased)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "queue.json")); err != nil {
		t.Fatalf("queue not persisted: %v", err)
	}
	if _, _, err := s.Submit(Submission{Alignment: align, Params: testParams(777)}); err != ErrDraining {
		t.Errorf("submit while draining returned %v, want ErrDraining", err)
	}

	// "Next process": a fresh server over the same data dir and fleet.
	s2, err := New(Config{Fleet: fleet, DataDir: dataDir, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	run2, ok := s2.Get(run.ID)
	if !ok {
		t.Fatalf("restarted server lost run %s", run.ID)
	}
	waitState(t, run2, StateDone)
	if !bytes.Contains(run2.log.dump(), []byte(`"ev":"resumed"`)) {
		t.Error("restarted run missing resumed event")
	}
	checkRunMatches(t, s2, run2, refResult(t, align, 456), "drain-resume")
}

// TestHTTPAPIAndSSEReplay drives the HTTP surface end to end: submit via
// JSON, status, poll events with offset, SSE replay via Last-Event-ID,
// artifact and tree fetch, /v1/stats and /debug/vars.
func TestHTTPAPIAndSSEReplay(t *testing.T) {
	align := testAlignment(t)
	s, _ := newTestServer(t, 2, Config{MaxRunning: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"alignment": string(align),
		"params":    testParams(456),
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/runs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var status struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	run, ok := s.Get(status.ID)
	if !ok {
		t.Fatalf("submitted run %q not found", status.ID)
	}
	waitState(t, run, StateDone)

	// Identical HTTP resubmission: 200 + dedup header, not 202.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/runs", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Raxml-Dedup") != "hit" {
		t.Errorf("resubmit: status %s dedup=%q, want 200/hit", resp2.Status, resp2.Header.Get("X-Raxml-Dedup"))
	}

	// Poll: full stream, then replay from an offset.
	var poll struct {
		Events []json.RawMessage `json:"events"`
		Next   int               `json:"next"`
		Done   bool              `json:"done"`
	}
	getJSON := func(path string, v any) {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, r.Status)
		}
		if err := json.NewDecoder(r.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	getJSON("/v1/runs/"+run.ID+"/events", &poll)
	if !poll.Done || len(poll.Events) < 4 || poll.Next != len(poll.Events) {
		t.Fatalf("poll: done=%v n=%d next=%d", poll.Done, len(poll.Events), poll.Next)
	}
	total := poll.Next
	var tail struct {
		Events []json.RawMessage `json:"events"`
		Next   int               `json:"next"`
	}
	getJSON(fmt.Sprintf("/v1/runs/%s/events?offset=%d", run.ID, total-3), &tail)
	if len(tail.Events) != 3 || tail.Next != total {
		t.Fatalf("offset replay: n=%d next=%d, want 3/%d", len(tail.Events), tail.Next, total)
	}
	for i, ev := range tail.Events {
		if string(ev) != string(poll.Events[total-3+i]) {
			t.Errorf("replayed event %d differs from original", i)
		}
	}

	// SSE replay: a reconnecting client resumes via Last-Event-ID and
	// receives exactly the missed frames plus the end marker.
	sseReq, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+run.ID+"/events", nil)
	sseReq.Header.Set("Accept", "text/event-stream")
	sseReq.Header.Set("Last-Event-ID", strconv.Itoa(total-2))
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	sseBody, err := io.ReadAll(sseResp.Body)
	sseResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sse := string(sseBody)
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	if n := strings.Count(sse, "id: "); n != 2 {
		t.Errorf("SSE frames: want 2 id frames, got %d:\n%s", n, sse)
	}
	for _, want := range []string{
		fmt.Sprintf("id: %d\n", total-1),
		fmt.Sprintf("id: %d\n", total),
		"event: end",
	} {
		if !strings.Contains(sse, want) {
			t.Errorf("SSE stream missing %q:\n%s", want, sse)
		}
	}

	// Artifacts and tree aliases.
	getBody := func(path string) string {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, r.Status)
		}
		b, _ := io.ReadAll(r.Body)
		return string(b)
	}
	want := refResult(t, align, 456)
	if got := getBody("/v1/runs/" + run.ID + "/trees/best"); got != want.Best.Newick+"\n" {
		t.Errorf("trees/best differs from reference")
	}
	if got := getBody("/v1/runs/" + run.ID + "/trees/consensus"); got != want.ConsensusNewick+"\n" {
		t.Errorf("trees/consensus differs from reference")
	}
	// The events artifact snapshots the trace up to analysis completion
	// (terminal lifecycle events live on the events endpoint itself).
	if got := getBody("/v1/runs/" + run.ID + "/artifacts/events"); !strings.Contains(got, `"job":"`+run.ID+`/consensus"`) {
		t.Errorf("events artifact missing consensus job events:\n%s", got)
	}

	// Stats + expvar.
	var stats map[string]any
	getJSON("/v1/stats", &stats)
	jobs := stats["jobs"].(map[string]any)
	if jobs["done"].(float64) < 1 {
		t.Errorf("stats jobs.done = %v, want >= 1", jobs["done"])
	}
	if vars := getBody("/debug/vars"); !strings.Contains(vars, `"raxml"`) {
		t.Error("/debug/vars missing the raxml variable")
	}
}

// TestDeriveRunID pins determinism and sensitivity of run IDs.
func TestDeriveRunID(t *testing.T) {
	p := testParams(456)
	a := DeriveRunID("hashA", "", p)
	if a != DeriveRunID("hashA", "", p) {
		t.Error("run ID not deterministic")
	}
	if len(a) != 13 || a[0] != 'r' {
		t.Errorf("run ID shape %q", a)
	}
	distinct := map[string]bool{a: true}
	p2 := p
	p2.SeedBootstrap = 789
	p3 := p
	p3.Model = "GTRGAMMA"
	for _, id := range []string{
		DeriveRunID("hashB", "", p),
		DeriveRunID("hashA", "part", p),
		DeriveRunID("hashA", "", p2),
		DeriveRunID("hashA", "", p3),
	} {
		if distinct[id] {
			t.Errorf("run ID collision: %s", id)
		}
		distinct[id] = true
	}
}

// TestQueueFull pins the per-tenant queue cap.
func TestQueueFull(t *testing.T) {
	align := testAlignment(t)
	s, _ := newTestServer(t, 0, Config{MaxRunning: 1, MaxQueuedPerTenant: 2})
	started, release := stubExecute(s)

	for i := int64(0); i < 3; i++ { // 1 running + 2 queued
		if _, _, err := s.Submit(Submission{Alignment: align, Params: testParams(100 + i), Tenant: "a"}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	nextStarted(t, started)
	if _, _, err := s.Submit(Submission{Alignment: align, Params: testParams(104), Tenant: "a"}); err != ErrQueueFull {
		t.Errorf("4th submission returned %v, want ErrQueueFull", err)
	}
	if _, _, err := s.Submit(Submission{Alignment: align, Params: testParams(201), Tenant: "b"}); err != nil {
		t.Errorf("other tenant rejected: %v", err)
	}
	// Drain the four admitted runs one at a time.
	for i := 0; i < 3; i++ {
		release <- struct{}{}
		nextStarted(t, started)
	}
	release <- struct{}{}
}
