package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"raxml/internal/core"
	"raxml/internal/fabric"
	"raxml/internal/finegrain"
	"raxml/internal/grid"
	"raxml/internal/server"
	"raxml/internal/tree"
)

// The serve-tcp traffic: serveTenants tenants, one closed-loop HTTP
// client each, submitting serveTaxa×serveChars analyses to a server at
// its default admission settings over a serveRanks-rank loopback-TCP
// fleet. The tenants submit the same serveAligns alignments in turn, so
// after the first round the pattern cache hits; every submission has
// its own seeds, so run-ID dedup never does. As on fa-ranks, many
// alignments per seed keep one alignment's search length from setting a
// seed's figure.
const (
	serveTaxa       = 24
	serveChars      = 600
	serveRanks      = 2
	serveAligns     = 16
	serveTenants    = 2
	serveStarts     = 2
	serveBootstraps = 10
	serveBatch      = 5
)

// fleetHarness is one server over one TCP fleet of in-process grid
// workers, each dialing the star listener and serving finegrain
// sessions over its link — the code path of `raxml -grid-worker`.
type fleetHarness struct {
	ln      *fabric.StarListener
	fleet   *grid.Fleet
	tracer  *grid.Tracer
	srv     *server.Server
	httpSrv *http.Server
	base    string
	dataDir string
	workers sync.WaitGroup
	served  chan struct{} // closed when the HTTP server has returned

	// Traced harnesses only: per-worker master-side link counts, the
	// worker-side busy time, and the lease log the fleet sink keeps.
	mu     sync.Mutex
	master map[int]*linkCounts
	worker linkCounts
	leases []leaseRec
}

// leaseRec is one lease of one worker, with the worker link's counts at
// lease time; the next lease of the worker (or the end of the run)
// closes the interval.
type leaseRec struct {
	job    string
	worker int
	at     time.Time
	counts linkTotals
}

func startHarness(dataDir string, traced bool) (*fleetHarness, error) {
	h := &fleetHarness{dataDir: dataDir, master: map[int]*linkCounts{}, served: make(chan struct{})}
	h.tracer = grid.NewTracerWith(nil)
	h.fleet = grid.NewFleet(h.tracer)
	if traced {
		h.fleet.LinkWrapper = func(id int, l fabric.Link) fabric.Link {
			c := &linkCounts{}
			h.mu.Lock()
			h.master[id] = c
			h.mu.Unlock()
			return &countingLink{Link: l, c: c}
		}
		h.tracer.Subscribe(h.leaseSink)
	}
	ln, err := fabric.ListenStar("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.ln = ln
	h.fleet.AcceptFrom(ln)
	dialErrs := make(chan error, serveRanks)
	for i := 0; i < serveRanks; i++ {
		h.workers.Add(1)
		go func() {
			defer h.workers.Done()
			link, err := fabric.DialStar(ln.Addr(), os.Getpid())
			if err != nil {
				dialErrs <- err
				return
			}
			var l fabric.Link = link
			if traced {
				l = &busyLink{Link: link, c: &h.worker}
			}
			defer l.Close()
			finegrain.ServeSessions(fabric.WorkerTransport(l))
		}()
	}
	if !h.fleet.WaitAlive(serveRanks, 10*time.Second) {
		h.stop()
		select {
		case err := <-dialErrs:
			return nil, fmt.Errorf("fleet start: %w", err)
		default:
			return nil, fmt.Errorf("fleet start: %d ranks did not join", serveRanks)
		}
	}
	h.fleet.StartHeartbeats(grid.DefaultHeartbeatInterval)
	h.srv, err = server.New(server.Config{Fleet: h.fleet, FleetTracer: h.tracer, DataDir: dataDir})
	if err != nil {
		h.stop()
		return nil, err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.stop()
		return nil, err
	}
	h.base = "http://" + httpLn.Addr().String()
	h.httpSrv = &http.Server{Handler: h.srv.Handler()}
	go func() {
		defer close(h.served)
		h.httpSrv.Serve(httpLn)
	}()
	return h, nil
}

// leaseSink is the fleet tracer sink of a traced harness: at each lease
// it snapshots the leased workers' link counts.
func (h *fleetHarness) leaseSink(rec map[string]any) {
	if rec["ev"] != "lease" {
		return
	}
	job, _ := rec["job"].(string)
	ids, _ := rec["workers"].([]int)
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range ids {
		if c := h.master[id]; c != nil {
			h.leases = append(h.leases, leaseRec{job: job, worker: id, at: now, counts: c.totals()})
		}
	}
}

// stop shuts the HTTP server, the service, the fleet and its workers
// down, waits for the workers to exit, and removes the data directory.
func (h *fleetHarness) stop() {
	if h.httpSrv != nil {
		h.httpSrv.Close()
		<-h.served
	}
	if h.srv != nil {
		h.srv.Drain()
	}
	h.fleet.StopHeartbeats()
	h.fleet.Shutdown()
	h.ln.Close()
	h.workers.Wait()
	os.RemoveAll(h.dataDir)
}

// masterTotals sums the master-side counts over all worker links.
func (h *fleetHarness) masterTotals() linkTotals {
	h.mu.Lock()
	defer h.mu.Unlock()
	var t linkTotals
	for _, c := range h.master {
		x := c.totals()
		t.Frames += x.Frames
		t.Bytes += x.Bytes
		t.SendS += x.SendS
		t.RecvWaitS += x.RecvWaitS
	}
	return t
}

// serveEvent is one record of a run's event stream.
type serveEvent struct {
	Ev  string `json:"ev"`
	Job string `json:"job"`
	T   string `json:"t"`
	at  time.Time
}

// serveSample is one request: submit, wait for done, fetch the best
// tree.
type serveSample struct {
	tenant   int
	align    int // index of the submitted alignment
	params   server.RunParams
	id       string
	submitAt time.Time // POST sent
	accepted time.Time // POST answered
	done     time.Time // client saw run-done
	fetchAt  time.Time // best-tree GET sent
	end      time.Time // best tree in hand
	events   []serveEvent
	tree     []byte
	err      error
}

func (s serveSample) wall() float64 { return s.end.Sub(s.submitAt).Seconds() }

// eventAt returns the time of the first event of kind ev.
func (s serveSample) eventAt(ev string) (time.Time, bool) {
	for _, e := range s.events {
		if e.Ev == ev {
			return e.at, true
		}
	}
	return time.Time{}, false
}

// request runs one analysis through the HTTP API.
func (h *fleetHarness) request(c *http.Client, tenant int, ins []faInput, align int, p server.RunParams) serveSample {
	s := serveSample{tenant: tenant, align: align, params: p}
	body, err := json.Marshal(map[string]any{"alignment": string(ins[align].text), "params": p})
	if err != nil {
		s.err = err
		return s
	}
	s.submitAt = time.Now()
	req, err := http.NewRequest("POST", h.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", fmt.Sprintf("tenant%d", tenant))
	var st struct {
		ID string `json:"id"`
	}
	code, err := doJSON(c, req, &st)
	s.accepted = time.Now()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d (202 expected: a new run, never a dedup hit)", code)
	}
	if err != nil {
		s.err = err
		return s
	}
	s.id = st.ID
	if s.err = h.awaitDone(c, &s); s.err != nil {
		return s
	}
	s.fetchAt = time.Now()
	resp, err := c.Get(h.base + "/v1/runs/" + s.id + "/trees/best")
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	s.tree, s.err = io.ReadAll(resp.Body)
	s.end = time.Now()
	if s.err == nil && resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("best tree: HTTP %d", resp.StatusCode)
	}
	return s
}

// awaitDone follows the run's SSE event stream until run-done.
func (h *fleetHarness) awaitDone(c *http.Client, s *serveSample) error {
	req, err := http.NewRequest("GET", h.base+"/v1/runs/"+s.id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e serveEvent
		if json.Unmarshal([]byte(data), &e) != nil || e.Ev == "" {
			continue
		}
		e.at, _ = time.Parse(time.RFC3339Nano, e.T)
		s.events = append(s.events, e)
		switch e.Ev {
		case "run-done":
			s.done = time.Now()
			return nil
		case "run-failed", "run-canceled":
			return fmt.Errorf("run %s: %s", s.id, e.Ev)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("run %s: event stream ended before run-done", s.id)
}

func doJSON(c *http.Client, req *http.Request, v any) (int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s: %w", req.URL.Path, err)
		}
	}
	return resp.StatusCode, nil
}

// serveParams are submission seq of a tenant: the same options every
// time, seeds unique per (workload seed, tenant, seq).
func serveParams(seed int64, tenant, seq int) server.RunParams {
	base := 1 + seed*1_000_000 + int64(tenant)*100_000 + int64(seq)
	return server.RunParams{
		Model:         "GTRCAT",
		Starts:        serveStarts,
		Bootstraps:    serveBootstraps,
		Batch:         serveBatch,
		SeedParsimony: base,
		SeedBootstrap: base + 50_000,
	}
}

// serveWindow is the measured part of a serveLoop.
type serveWindow struct {
	open, close time.Time // the window; requests may end after close
	last        time.Time // the last request's end
	used        usage     // process resources from open to last
}

// serveLoop runs the tenants' closed loops for seconds, measured from
// the first submission; requests in flight when the window closes
// complete.
func (h *fleetHarness) serveLoop(seed int64, ins []faInput, seconds float64, seq0 int) ([]serveSample, serveWindow) {
	var (
		mu      sync.Mutex
		samples []serveSample
		wg      sync.WaitGroup
	)
	win := serveWindow{open: time.Now()}
	win.close = win.open.Add(time.Duration(seconds * float64(time.Second)))
	u0 := readUsage()
	for t := 0; t < serveTenants; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{Timeout: 120 * time.Second}
			defer c.CloseIdleConnections()
			for seq := seq0; time.Now().Before(win.close); seq++ {
				s := h.request(c, t, ins, seq%len(ins), serveParams(seed, t, seq))
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
				if s.err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	win.used = readUsage().minus(u0)
	for _, s := range samples {
		if s.end.After(win.last) {
			win.last = s.end
		}
	}
	return samples, win
}

// serveInput is the set-up of serve-tcp: the alignments and a running
// harness.
type serveInput struct {
	ins []faInput
	h   *fleetHarness
}

func runServe(cfg runConfig) (*report, error) {
	rep := newReport()
	dataRoot := filepath.Join(cfg.outDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)
	reps := 0
	// Set-up is timed as a user pays it: generate and compress the input,
	// start the fleet and the server.
	setup, setupS, err := timeSetup(setupReps, func() (serveInput, error) {
		ins, err := genInputs(cfg.seed, serveAligns, serveTaxa, serveChars)
		if err != nil {
			return serveInput{}, err
		}
		reps++
		h, err := startHarness(filepath.Join(dataRoot, fmt.Sprint(reps)), false)
		return serveInput{ins, h}, err
	}, func(s serveInput) { s.h.stop() })
	if err != nil {
		return nil, err
	}
	rep.setE2E("setup_s", setupS, "s")
	ins, h := setup.ins, setup.h

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	samples, win := h.serveLoop(cfg.seed, ins, seconds, 0)
	rep.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	h.stop()

	_, walls := completed(samples)
	rep.attempted = len(samples)
	rep.walls = walls
	rep.setE2E("run_p50_s", median(walls), "s")
	rep.setE2E("runs_per_min", 60*credit(serveIntervals(samples), win.open, win.close)/seconds, "1/min")
	rep.setE2E("cpu_s_per_run", win.used.cpuS/credit(serveIntervals(samples), win.open, win.last), "s")
	if t, ok := selectTail(walls); ok {
		rep.tail = &t
	}
	all := samples

	if cfg.trace {
		th, err := startHarness(filepath.Join(dataRoot, "traced"), true)
		if err != nil {
			return nil, err
		}
		traced, twin := th.serveLoop(cfg.seed, ins, seconds, len(samples)+1000)
		stats, statsErr := fetchStats(th)
		th.stop()
		if statsErr != nil {
			return nil, statsErr
		}
		rep.attempted += len(traced)
		all = append(all, traced...)
		tok, twalls := completed(traced)
		setGoLayer(rep, twin.used, credit(serveIntervals(traced), twin.open, twin.last))
		rep.setLayer("trace.overhead_ratio", median(twalls)/median(walls), "ratio")
		serveLayers(rep, th, tok, stats)
		if len(tok) > 0 {
			last := tok[len(tok)-1]
			in := ins[last.align]
			best, err := tree.ParseNewick(strings.TrimSpace(string(last.tree)), in.pat.Names)
			if err != nil {
				return nil, err
			}
			if err := probeLayers(rep, in, best); err != nil {
				return nil, err
			}
		}
	}

	failed, err := checkServe(rep, ins, all)
	if err != nil {
		return nil, err
	}
	rep.failed = failed
	return rep, nil
}

// completed returns the completed requests and their wall times.
func completed(ss []serveSample) (ok []serveSample, walls []float64) {
	for _, s := range ss {
		if s.err == nil {
			ok = append(ok, s)
			walls = append(walls, s.wall())
		}
	}
	return ok, walls
}

// serveIntervals returns the extents of the completed requests.
func serveIntervals(ss []serveSample) []interval {
	var ivs []interval
	for _, s := range ss {
		if s.err == nil {
			ivs = append(ivs, interval{s.submitAt, s.end})
		}
	}
	return ivs
}

// checkServe counts the failed requests: errors, best trees that are
// not a tree over all taxa, and a tenant's first run that differs from
// a master-local grid.Analysis of the same submission by more than the
// reordering of sums a different stripe count causes (see
// branchTolerance).
func checkServe(rep *report, ins []faInput, ss []serveSample) (int, error) {
	failed := 0
	firstSeen := map[int]bool{}
	for _, s := range ss {
		if s.err != nil {
			rep.note("tenant %d: %v", s.tenant, s.err)
			failed++
			continue
		}
		in := ins[s.align]
		if _, err := tree.ParseNewick(strings.TrimSpace(string(s.tree)), in.pat.Names); err != nil || !allTaxa(string(s.tree), in.pat.Names) {
			rep.note("run %s: best tree is not a tree over all %d taxa", s.id, len(in.pat.Names))
			failed++
			continue
		}
		if firstSeen[s.tenant] {
			continue
		}
		firstSeen[s.tenant] = true
		want, err := masterLocal(in, s.params)
		if err != nil {
			return 0, err
		}
		switch {
		case string(s.tree) == want:
		case newickClose(string(s.tree), want, branchTolerance):
			rep.note("run %s: best tree equals the master-local analysis up to branch lengths within %g, not byte for byte", s.id, branchTolerance)
		default:
			rep.note("run %s: best tree differs from the master-local analysis of the same submission", s.id)
			failed++
		}
	}
	return failed, nil
}

func allTaxa(newick string, names []string) bool {
	for _, n := range names {
		if strings.Count(newick, n) != 1 {
			return false
		}
	}
	return true
}

// masterLocal runs a submission as a master-local grid analysis (no
// fleet) with the options the server derives from it, and returns the
// bestTree artifact it would store.
func masterLocal(in faInput, p server.RunParams) (string, error) {
	a := &grid.Analysis{
		Pat: in.pat,
		Opts: core.Options{
			Bootstraps:     p.Bootstraps,
			Workers:        1,
			SeedParsimony:  p.SeedParsimony,
			SeedBootstrap:  p.SeedBootstrap,
			Model:          core.GTRCAT,
			EmpiricalFreqs: true,
		},
		Starts:     p.Starts,
		Replicates: p.Bootstraps,
		Batch:      p.Batch,
	}
	g := grid.New(grid.Config{})
	res, err := a.Build(g)
	if err != nil {
		return "", err
	}
	if err := g.Run(); err != nil {
		return "", err
	}
	return res.Best.Newick + "\n", nil
}

// serveStats is the part of /v1/stats the benchmark reads.
type serveStats struct {
	Cache      map[string]server.CacheStats `json:"cache"`
	Dispatches int64                        `json:"dispatches"`
	Fleet      map[string]any               `json:"fleet"`
	Health     map[string]any               `json:"health"`
}

func fetchStats(h *fleetHarness) (serveStats, error) {
	var st serveStats
	req, err := http.NewRequest("GET", h.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	code, err := doJSON(http.DefaultClient, req, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("stats: HTTP %d", code)
	}
	return st, err
}

// serveLayers derives the fabric, finegrain, grid and server metrics of
// the completed traced requests and records their spans. Only a
// request's grid.job spans count toward the share of server.exec that
// is accounted for: exec time outside every job is time no layer below
// the server measured.
func serveLayers(rep *report, h *fleetHarness, ss []serveSample, st serveStats) {
	n := float64(max(len(ss), 1))
	m := h.masterTotals()
	busy := h.worker.totals().WorkerBusyS
	rep.setLayer("fabric.frames_per_run", float64(m.Frames)/n, "count")
	rep.setLayer("fabric.bytes_per_run", float64(m.Bytes)/n, "bytes")
	rep.setLayer("fabric.send_s_per_run", m.SendS/n, "s")
	rep.setLayer("fabric.recv_wait_s_per_run", m.RecvWaitS/n, "s")
	rep.setLayer("finegrain.worker_busy_s_per_run", busy/n, "s")
	rep.setLayer("finegrain.wire_overhead_s_per_run", (m.RecvWaitS-busy)/n, "s")
	rep.setLayer("threads.dispatches_per_run", float64(st.Dispatches)/n, "count")

	var hits, lookups int64
	for _, c := range st.Cache {
		hits += c.Hits
		lookups += c.Hits + c.Misses
	}
	rep.setLayer("server.cache_hit_ratio", float64(hits)/float64(max(lookups, 1)), "ratio")

	rec := newRecorder()
	var submit, queue, fetch []float64
	var jobs, elastic, leased, restripes int
	var jobBusy float64
	for _, s := range ss {
		submit = append(submit, s.accepted.Sub(s.submitAt).Seconds()*1e3)
		fetch = append(fetch, s.end.Sub(s.fetchAt).Seconds()*1e3)
		started, _ := s.eventAt("run-start")
		finished, _ := s.eventAt("run-done")
		queue = append(queue, started.Sub(s.submitAt).Seconds())

		root := rec.add(span{Run: s.id, Name: "request", Start: s.submitAt, End: s.end})
		rec.add(span{Run: s.id, Parent: root, Name: "server.submit", Start: s.submitAt, End: s.accepted})
		rec.add(span{Run: s.id, Parent: root, Name: "server.queue", Start: s.submitAt, End: started})
		exec := rec.add(span{Run: s.id, Parent: root, Name: "server.exec", Start: started, End: finished})
		rec.add(span{Run: s.id, Parent: root, Name: "server.events", Start: finished, End: s.done})
		rec.add(span{Run: s.id, Parent: root, Name: "server.fetch", Start: s.fetchAt, End: s.end})

		startOf := map[string]time.Time{}
		for _, e := range s.events {
			switch e.Ev {
			case "job-start":
				jobs++
				startOf[e.Job] = e.at
				if isElastic(e.Job) {
					elastic++
				}
			case "job-done":
				if t0, ok := startOf[e.Job]; ok {
					jobBusy += e.at.Sub(t0).Seconds()
					jid := rec.add(span{Run: s.id, Parent: exec, Name: "grid.job", Start: t0, End: e.at})
					h.leaseSpans(rec, s.id, jid, e.Job, e.at)
				}
			case "lease":
				leased++
			case "restripe":
				restripes++
				elastic++
			}
		}
	}
	rep.setLayer("grid.jobs_per_run", float64(jobs)/n, "count")
	rep.setLayer("grid.job_busy_s_per_run", jobBusy/n, "s")
	rep.setLayer("grid.local_jobs_ratio", float64(elastic-leased)/float64(max(elastic, 1)), "ratio")
	rep.setLayer("grid.restripes", float64(restripes), "count")
	rep.setLayer("server.submit_ms", median(submit), "ms")
	rep.setLayer("server.queue_wait_s", median(queue), "s")
	rep.setLayer("server.fetch_ms", median(fetch), "ms")
	rep.spans = rec.snapshot()
	rep.setLayer("trace.accounted_ratio", accountedRatio(rep.spans, "request", "server.exec"), "ratio")
}

// isElastic reports whether a job leases fleet ranks: ML searches and
// bootstrap batches do; bootstop and consensus run on the master.
func isElastic(job string) bool {
	return strings.Contains(job, "/ml/") || strings.Contains(job, "/bs/")
}

// leaseSpans records a fabric.lease span for each lease of job: from
// the lease to the job's end, with the leased link's traffic over the
// lease (up to the worker's next lease, or its current counts).
func (h *fleetHarness) leaseSpans(rec *recorder, run string, parent int64, job string, end time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, l := range h.leases {
		if l.job != job {
			continue
		}
		next := h.master[l.worker].totals()
		for _, m := range h.leases[i+1:] {
			if m.worker == l.worker {
				next = m.counts
				break
			}
		}
		d := next.minus(l.counts)
		rec.add(span{Run: run, Parent: parent, Name: "fabric.lease", Start: l.at, End: end, Attrs: map[string]float64{
			"worker": float64(l.worker), "frames": float64(d.Frames), "bytes": float64(d.Bytes),
			"send_s": d.SendS, "recv_wait_s": d.RecvWaitS,
		}})
	}
}
