package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"time"

	"raxml/internal/core"
	"raxml/internal/msa"
	"raxml/internal/seqgen"
	"raxml/internal/tree"
)

// The fa-ranks problem: faDatasets synthetic faTaxa×faChars alignments per
// workload seed, each analysed with the CLI's -f a options at -N
// faBootstraps. Several alignments per seed, cycled through by the
// closed loop, keep one alignment's search length from setting a seed's
// whole figure.
const (
	faTaxa       = 24
	faChars      = 600
	faDatasets   = 16
	faBootstraps = 20
	setupReps    = 15
)

// faShape is a coarse×fine decomposition of the same analysis.
type faShape struct{ ranks, workers int }

var (
	faRanks  = faShape{ranks: 2, workers: 1}
	faSerial = faShape{ranks: 1, workers: 1}
)

// faInput is one generated alignment: its PHYLIP text and patterns.
type faInput struct {
	text []byte
	pat  *msa.Patterns
}

// genAlignment generates, formats, parses and compresses one synthetic
// alignment — the set-up a user pays before an analysis starts.
func genAlignment(taxa, chars int, seed int64) (faInput, error) {
	a, _, err := seqgen.Generate(seqgen.Config{
		Taxa: taxa, Chars: chars, Seed: seed, TreeScale: 0.5, Alpha: 0.8,
	})
	if err != nil {
		return faInput{}, err
	}
	var buf bytes.Buffer
	if err := msa.WritePHYLIP(&buf, a); err != nil {
		return faInput{}, err
	}
	parsed, err := msa.Sniff(buf.Bytes())
	if err != nil {
		return faInput{}, fmt.Errorf("parsing generated alignment: %w", err)
	}
	pat, err := msa.Compress(parsed)
	if err != nil {
		return faInput{}, err
	}
	return faInput{text: buf.Bytes(), pat: pat}, nil
}

// genInputs generates a workload seed's n alignments of taxa×chars;
// dataset k's generator seed is seed*16+k+1.
func genInputs(seed int64, n, taxa, chars int) ([]faInput, error) {
	ins := make([]faInput, n)
	for k := range ins {
		in, err := genAlignment(taxa, chars, seed*16+int64(k)+1)
		if err != nil {
			return nil, err
		}
		ins[k] = in
	}
	return ins, nil
}

// faOptions are the CLI's -f a options (GTRCAT, empirical frequencies,
// default search presets) with seeds derived from the workload seed.
func faOptions(seed int64, sh faShape) core.Options {
	return core.Options{
		Bootstraps:     faBootstraps,
		Ranks:          sh.ranks,
		Workers:        sh.workers,
		SeedParsimony:  12345 + seed,
		SeedBootstrap:  54321 + seed,
		Model:          core.GTRCAT,
		EmpiricalFreqs: true,
	}
}

// faOutcome is the checked part of an analysis result.
type faOutcome struct {
	lnl    float64
	newick string
}

func outcomeOf(res *core.Result) (faOutcome, error) {
	nw, err := tree.FormatNewick(res.BestTree, nil)
	return faOutcome{lnl: res.BestLogLikelihood, newick: nw}, err
}

// same reports bit-identical results: what two runs of one
// decomposition must give.
func (o faOutcome) same(p faOutcome) bool {
	return math.Float64bits(o.lnl) == math.Float64bits(p.lnl) && o.newick == p.newick
}

func (o faOutcome) digest() string {
	sum := sha256.Sum256([]byte(o.newick))
	return hex.EncodeToString(sum[:])
}

// A grid job's stripe count decides in which order per-rank partial
// sums are added. That moves the last bits of optimized branch lengths
// (observed: one length in the 13th significant digit) while the
// topology stays the same, so a served tree is compared with its
// master-local reference within this bound per branch length.
const branchTolerance = 1e-9

var branchLength = regexp.MustCompile(`:([-+0-9.eE]+)`)

// newickClose reports whether two Newick strings have the same text
// apart from branch lengths, and lengths that differ by at most tol.
func newickClose(a, b string, tol float64) bool {
	if branchLength.ReplaceAllString(a, ":") != branchLength.ReplaceAllString(b, ":") {
		return false
	}
	la := branchLength.FindAllStringSubmatch(a, -1)
	lb := branchLength.FindAllStringSubmatch(b, -1)
	for i := range la {
		x, errX := strconv.ParseFloat(la[i][1], 64)
		y, errY := strconv.ParseFloat(lb[i][1], 64)
		if errX != nil || errY != nil || math.Abs(x-y) > tol {
			return false
		}
	}
	return true
}

// faSample is one analysis of the closed loop.
type faSample struct {
	dataset int
	wall    float64
	res     *core.Result
	out     faOutcome
	err     error
}

// faLoop runs analyses back to back, cycling through the datasets, until
// seconds have passed; the analysis in flight at the deadline completes.
// It returns the samples and the analyses completed per minute of the
// window.
// With a recorder it also records each analysis's spans: core.Run and,
// inside it, each rank's stages from Result.Ranks[].Times.
func faLoop(ins []faInput, opts core.Options, seconds float64, rec *recorder, runPrefix string) (samples []faSample, runsPerMin float64) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var ivs []interval
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(ins)
		t0 := time.Now()
		res, err := core.Run(ins[k].pat, opts)
		t1 := time.Now()
		ivs = append(ivs, interval{t0, t1})
		s := faSample{dataset: k, wall: t1.Sub(t0).Seconds(), res: res, err: err}
		if err == nil {
			s.out, s.err = outcomeOf(res)
			recordFASpans(rec, fmt.Sprintf("%s%d", runPrefix, i), t0, t1, res)
		}
		samples = append(samples, s)
	}
	return samples, 60 * credit(ivs, start, deadline) / seconds
}

func recordFASpans(rec *recorder, run string, t0, t1 time.Time, res *core.Result) {
	if rec == nil {
		return
	}
	root := rec.add(span{Run: run, Name: "core.Run", Start: t0, End: t1})
	for _, rk := range res.Ranks {
		tt := rk.Times
		rid := rec.add(span{Run: run, Parent: root, Name: fmt.Sprintf("core.rank%d", rk.Rank),
			Start: t0, End: t0.Add(tt.Total()), Attrs: map[string]float64{"dispatches": float64(rk.Dispatches)}})
		at := t0
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"core.bootstrap", tt.Bootstrap}, {"core.fast", tt.Fast}, {"core.slow", tt.Slow}, {"core.thorough", tt.Thorough}} {
			rec.add(span{Run: run, Parent: rid, Name: st.name, Start: at, End: at.Add(st.d)})
			at = at.Add(st.d)
		}
	}
}

// faChecker compares every analysis of a dataset with the dataset's
// first result, and those first results with a reference obtained after
// the measured window.
type faChecker struct {
	first  map[int]faOutcome
	counts map[int]int // analyses per dataset
	bad    map[int]int // failed analyses per dataset
}

func newFAChecker() *faChecker {
	return &faChecker{first: map[int]faOutcome{}, counts: map[int]int{}, bad: map[int]int{}}
}

// observe checks one sample against its dataset's first result.
func (c *faChecker) observe(s faSample) {
	c.counts[s.dataset]++
	if s.err != nil {
		c.bad[s.dataset]++
		return
	}
	if first, ok := c.first[s.dataset]; !ok {
		c.first[s.dataset] = s.out
	} else if !first.same(s.out) {
		c.bad[s.dataset]++
	}
}

// settle checks each dataset's first result with ref(k), which returns
// the reference's acceptance test and lnL; when a first result fails it,
// every analysis of that dataset counts as failed.
func (c *faChecker) settle(ref func(k int) (accept func(faOutcome) bool, lnl float64, err error), rep *report) error {
	for k := 0; k < faDatasets; k++ {
		first, ok := c.first[k]
		if !ok {
			continue
		}
		accept, lnl, err := ref(k)
		if err != nil {
			return err
		}
		if !accept(first) {
			rep.note("dataset %d: best lnL %.10f or its tree differs from the reference (lnL %.10f)", k, first.lnl, lnl)
			c.bad[k] = c.counts[k]
		}
	}
	return nil
}

func (c *faChecker) failed() int {
	n := 0
	for _, b := range c.bad {
		n += b
	}
	return n
}

func faInputs(seed int64) ([]faInput, error) {
	return genInputs(seed, faDatasets, faTaxa, faChars)
}

func runFA(cfg runConfig) (*report, error) {
	rep := newReport()
	ins, setupS, err := timeSetup(setupReps, func() ([]faInput, error) { return faInputs(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	rep.setE2E("setup_s", setupS, "s")
	opts := faOptions(cfg.seed, faRanks)
	check := newFAChecker()

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	u0 := readUsage()
	samples, runsPerMin := faLoop(ins, opts, seconds, nil, "fa-")
	used := readUsage().minus(u0)
	rep.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	for _, s := range samples {
		check.observe(s)
	}
	walls := sampleWalls(samples)
	rep.attempted = len(samples)
	rep.walls = walls
	rep.setE2E("run_p50_s", median(walls), "s")
	rep.setE2E("runs_per_min", runsPerMin, "1/min")
	rep.setE2E("cpu_s_per_run", used.cpuS/float64(len(samples)), "s")
	if t, ok := selectTail(walls); ok {
		rep.tail = &t
	}

	var traced []faSample
	if cfg.trace {
		rec := newRecorder()
		u1 := readUsage()
		traced, _ = faLoop(ins, opts, seconds, rec, "fa-traced-")
		setGoLayer(rep, readUsage().minus(u1), float64(len(traced)))
		for _, s := range traced {
			check.observe(s)
		}
		rep.attempted += len(traced)
		rep.spans = rec.snapshot()
		if err := faLayers(rep, ins, traced, median(walls)); err != nil {
			return nil, err
		}
	}

	// References come after the measured window, so their cost is in
	// no timed figure. A traced run also times each dataset's serial
	// 1×1 analysis there, for the scaling figures.
	var serialTimes []float64
	ref := func(k int) (func(faOutcome) bool, float64, error) {
		if cfg.trace {
			t0 := time.Now()
			if _, err := core.Run(ins[k].pat, faOptions(cfg.seed, faSerial)); err != nil {
				return nil, 0, err
			}
			serialTimes = append(serialTimes, time.Since(t0).Seconds())
		}
		want, ok := recordedReference(cfg.seed, k)
		if !ok {
			// Another decomposition is no reference here: at R=2 the
			// best tree can change with the worker count (see
			// README.md), so only the repeats' bit-identity is checked.
			rep.note("dataset %d: no recorded reference for seed %d; checked for bit-identical repeats only", k, cfg.seed)
			return func(faOutcome) bool { return true }, 0, nil
		}
		return func(o faOutcome) bool {
			return math.Float64bits(o.lnl) == math.Float64bits(want.LnL) && o.digest() == want.Digest
		}, want.LnL, nil
	}
	if err := check.settle(ref, rep); err != nil {
		return nil, err
	}
	rep.failed = check.failed()
	if cfg.trace {
		serial := median(serialTimes)
		rep.setLayer("scaling.serial_s", serial, "s")
		rep.setLayer("scaling.efficiency", serial/(2*median(walls)), "ratio")
	}
	return rep, nil
}

func sampleWalls(ss []faSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall
	}
	return out
}
