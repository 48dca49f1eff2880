// Command perfbench is the repository's end-to-end benchmark. It runs
// closed-loop comprehensive (-f a) analyses on one workload, checks
// every result, and prints each metric by name with its unit; the last
// line of standard output is the JSON summary
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With -trace 1 the run is split into an untraced and a
// traced half; the traced half wraps each layer boundary (core.Run,
// likelihood.Engine, threads.Pool, fabric.Link, grid.Tracer, the
// server's HTTP API) in spans and reports per-layer metrics, and spans
// are written to <out>/spans-<workload>-seed<N>.jsonl.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload fa-ranks --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"raxml/internal/likelihood"
)

// metric is one named figure of the JSON summary.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	attempted, failed int
	e2e, layer        map[string]metric
	tail              *tail
	walls             []float64 // per-analysis wall times of the untraced loop
	notes             []string
	spans             []span
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runConfig is the parsed command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

var workloads = map[string]func(runConfig) (*report, error){
	"fa-ranks":  runFA,
	"serve-tcp": runServe,
}

func main() {
	var cfg runConfig
	var traceFlag int
	var recordRefs string
	flag.StringVar(&cfg.workload, "workload", "", "fa-ranks or serve-tcp")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.outDir, "out", ".bench_out", "directory for spans and result files")
	flag.StringVar(&recordRefs, "record-refs", "", "FROM:TO: record fa-ranks references for seeds FROM..TO into the given refs file path (maintenance)")
	flag.Parse()
	cfg.trace = traceFlag != 0

	if recordRefs != "" {
		if err := recordReferences(recordRefs, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (fa-ranks, serve-tcp) and -seconds > 0\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	total0, steal0, stealOK := cpuTicks()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host := hostShape()
	if total1, steal1, ok := cpuTicks(); stealOK && ok && total1 > total0 {
		host["cpu_steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	if err := emit(cfg, host, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// hostShape records what the numbers were measured on, so results from
// hosts of different shapes are never compared unawares.
func hostShape() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     likelihood.ActiveKernelName(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuTicks reads the host's aggregate CPU time from /proc/stat: all
// ticks, and the steal ticks, when the hypervisor ran something else
// while a vCPU of the host wanted to run. On a shared VM the timed
// figures follow steal, so each result records its share over the run.
// ok is false where /proc/stat is missing or unreadable.
func cpuTicks() (total, steal float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, x := range f[1:9] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// emit prints the human-readable lines, writes the result file (and the
// spans of a traced run), and prints the JSON summary last.
func emit(cfg runConfig, host map[string]any, rep *report) error {
	hb, _ := json.Marshal(host)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host %s\n", hb)
	for _, n := range rep.notes {
		fmt.Printf("note: %s\n", n)
	}
	failedRatio := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Printf("%-34s %14.6g %s\n", "failed_ratio", failedRatio, "ratio")
	if rep.tail != nil {
		fmt.Printf("%-34s %14.6g %s (p%g, %d of %d samples beyond)\n", "run_tail_s",
			rep.tail.Value, "s", rep.tail.Pct, rep.tail.Beyond, rep.tail.N)
	} else {
		fmt.Printf("%-34s %14s (too few samples for a tail)\n", "run_tail_s", "omitted")
	}
	metrics := rep.e2e
	if cfg.trace {
		fillLayers(rep)
		metrics = rep.layer
	}
	for _, ms := range []map[string]metric{rep.e2e, rep.layer} {
		for name, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				// No completed analysis to measure: the failures say why.
				fmt.Printf("note: %s has no value; reported as 0\n", name)
				ms[name] = metric{0, m.Unit}
			}
		}
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Printf("%-34s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}

	tag := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	full := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host": host, "attempted": rep.attempted, "failed": rep.failed, "failed_ratio": failedRatio,
		"end_to_end": rep.e2e, "per_layer": rep.layer, "tail": rep.tail, "notes": rep.notes, "walls_s": rep.walls,
	}
	fb, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "result-"+tag+".json"), fb, 0o644); err != nil {
		return err
	}
	if cfg.trace {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.spans), path)
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics}
	sb, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(sb))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// usage is a process-level resource snapshot: CPU time, allocation and
// GC pause totals.
type usage struct {
	cpuS, allocBytes, gcPauseS float64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	u := usage{cpuS: tv(ru.Utime) + tv(ru.Stime)}
	if samples[0].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = float64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == metrics.KindFloat64Histogram {
		u.gcPauseS = histogramSum(samples[1].Value.Float64Histogram())
	}
	return u
}

// histogramSum estimates a histogram's total from bucket midpoints (the
// open-ended edge buckets count at their finite bound).
func histogramSum(h *metrics.Float64Histogram) float64 {
	total := 0.0
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case isInf(lo) && isInf(hi):
			continue
		case isInf(lo):
			mid = hi
		case isInf(hi):
			mid = lo
		}
		total += float64(n) * mid
	}
	return total
}

func isInf(x float64) bool { return x > 1e300 || x < -1e300 }

func (u usage) minus(o usage) usage {
	return usage{u.cpuS - o.cpuS, u.allocBytes - o.allocBytes, u.gcPauseS - o.gcPauseS}
}

// peakRSSMB is the process high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// setupWarmup is how long timeSetup repeats set-up untimed before it
// times it. Timed from a cold process on a 2-vCPU VM, one seed's fa
// set-up read 12 to 20 ms from run to run (serve-tcp: 7 or 14 ms), the
// whole run in one mode; after a 1 s warm-up it read 11 to 13 ms.
const setupWarmup = time.Second

// timeSetup runs setup untimed for setupWarmup, then reps times, and
// returns the last result and the median duration of the timed reps in
// seconds; release (untimed, may be nil) disposes of every other
// result. Set-up is repeated so that its figure is a median, not one
// noisy sample.
func timeSetup[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var out T
	var ds []float64
	for start := time.Now(); time.Since(start) < setupWarmup; {
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		if release != nil {
			release(v)
		}
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		if i < reps-1 && release != nil {
			release(v)
		}
		out = v
	}
	return out, median(ds), nil
}

// setGoLayer reports the Go runtime's allocation and GC cost per run.
func setGoLayer(rep *report, u usage, runs float64) {
	n := max(runs, 1)
	rep.setLayer("go.alloc_mb_per_run", u.allocBytes/n/(1<<20), "MB")
	rep.setLayer("go.gc_pause_ms_per_run", u.gcPauseS/n*1e3, "ms")
}
