package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"raxml/internal/server"
)

func TestNewickClose(t *testing.T) {
	a := "((t1:0.0009367294887,t2:0.5):0.1,t3:1e-05,t4:2);"
	for _, c := range []struct {
		b    string
		want bool
	}{
		{a, true},
		{"((t1:0.0009367294888,t2:0.5):0.1,t3:1e-05,t4:2);", true},  // last digit
		{"((t1:0.0009367394887,t2:0.5):0.1,t3:1e-05,t4:2);", false}, // 1e-8 off
		{"((t2:0.0009367294887,t1:0.5):0.1,t3:1e-05,t4:2);", false}, // other tree
		{"((t1:0.0009367294887,t2:0.5):0.1,t3:1e-05);", false},
	} {
		if got := newickClose(a, c.b, branchTolerance); got != c.want {
			t.Errorf("newickClose(%q) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestPlantedWrongReferenceFailsItsDataset(t *testing.T) {
	good := faOutcome{lnl: -3338.56, newick: "((a:0.1,b:0.2):0.3,c:0.4,d:0.5);"}
	check := newFAChecker()
	for i := 0; i < 7; i++ {
		check.observe(faSample{dataset: i % 2, out: good})
	}
	drifted := good
	drifted.newick = "((a:0.1,c:0.2):0.3,b:0.4,d:0.5);"
	rep := newReport()
	err := check.settle(func(k int) (func(faOutcome) bool, float64, error) {
		if k == 1 {
			return drifted.same, drifted.lnl, nil // the planted wrong reference
		}
		return good.same, good.lnl, nil
	}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := check.failed(); got != 3 {
		t.Errorf("failed = %d, want the 3 analyses of dataset 1", got)
	}
	if len(rep.notes) != 1 {
		t.Errorf("notes = %q, want one for dataset 1", rep.notes)
	}
}

func TestNondeterministicRepeatFails(t *testing.T) {
	check := newFAChecker()
	a := faOutcome{lnl: -10, newick: "x"}
	b := faOutcome{lnl: -10.000000000001, newick: "x"}
	check.observe(faSample{dataset: 0, out: a})
	check.observe(faSample{dataset: 0, out: b}) // same analysis, other bits
	check.observe(faSample{dataset: 0, out: a})
	if got := check.failed(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
}

func TestCheckServeAgainstMasterLocal(t *testing.T) {
	in, err := genAlignment(8, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := server.RunParams{Model: "GTRCAT", Starts: 1, Bootstraps: 5, Batch: 5, SeedParsimony: 7, SeedBootstrap: 9}
	want, err := masterLocal(in, p)
	if err != nil {
		t.Fatal(err)
	}
	ins := []faInput{in}
	good := serveSample{tenant: 0, params: p, tree: []byte(want)}
	if failed, err := checkServe(newReport(), ins, []serveSample{good, good}); err != nil || failed != 0 {
		t.Fatalf("correct runs: failed=%d err=%v", failed, err)
	}

	// A planted wrong reference: the first run's tree with two taxa
	// swapped is still a tree over all taxa, but not the analysis result.
	wrong := good
	wrong.tree = []byte(strings.NewReplacer("taxon0000", "taxon0001", "taxon0001", "taxon0000").Replace(want))
	if failed, err := checkServe(newReport(), ins, []serveSample{wrong, good}); err != nil || failed != 1 {
		t.Errorf("swapped taxa: failed=%d err=%v, want 1", failed, err)
	}
	// Later runs are checked for being trees over all taxa.
	missing := good
	missing.tree = []byte(strings.Replace(want, "taxon0003", "taxon0002", 1))
	if failed, _ := checkServe(newReport(), ins, []serveSample{good, missing}); failed != 1 {
		t.Errorf("duplicate taxon: failed=%d, want 1", failed)
	}
}

// TestBenchmarkJSONMatchesReports keeps BENCHMARK.json's metric lists in
// step with what the benchmark reports.
func TestBenchmarkJSONMatchesReports(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(sortedKeys(workloads), " "); got != want {
		t.Errorf("BENCHMARK.json workloads are %q, the benchmark runs %q", got, want)
	}
	layers := map[string]string{}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(layers) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(layers), len(layerUnits))
	}
	for name, unit := range layerUnits {
		if layers[name] != unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, reported %q", name, layers[name], unit)
		}
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name+"/"+m.Unit)
	}
	sort.Strings(e2e)
	if got := strings.Join(e2e, " "); got != "cpu_s_per_run/s peak_rss_mb/MB run_p50_s/s runs_per_min/1/min setup_s/s" {
		t.Errorf("end-to-end metrics %q", got)
	}
}

func TestRecordedReferencesAreForThisProblem(t *testing.T) {
	tab, err := loadRefs(refsJSON)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Problem != faProblem() || len(tab.Entries) == 0 {
		t.Errorf("refs.json is for %q with %d entries; the fa problem is %q", tab.Problem, len(tab.Entries), faProblem())
	}
}

func TestServeHarnessRoundTrip(t *testing.T) {
	in, err := genAlignment(8, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := startHarness(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	p := server.RunParams{Model: "GTRCAT", Starts: 1, Bootstraps: 5, Batch: 5, SeedParsimony: 7, SeedBootstrap: 9}
	s := h.request(&http.Client{Timeout: time.Minute}, 0, []faInput{in}, 0, p)
	stats, statsErr := fetchStats(h)
	h.stop() // must return: the workers exit and are waited for
	if s.err != nil || statsErr != nil {
		t.Fatalf("request: %v; stats: %v", s.err, statsErr)
	}
	if failed, err := checkServe(newReport(), []faInput{in}, []serveSample{s}); err != nil || failed != 0 {
		t.Errorf("check: failed=%d err=%v", failed, err)
	}
	rep := newReport()
	serveLayers(rep, h, []serveSample{s}, stats)
	if got := rep.layer["grid.jobs_per_run"].Value; got != 4 { // ml/0, bs/0, bootstop, consensus
		t.Errorf("jobs per run = %g, want 4", got)
	}
	if rep.layer["fabric.frames_per_run"].Value == 0 || rep.layer["finegrain.worker_busy_s_per_run"].Value <= 0 {
		t.Errorf("no wire traffic measured: %v", rep.layer)
	}
	if got := rep.layer["trace.accounted_ratio"].Value; got <= 0 || got > 1 {
		t.Errorf("spans account for %g of the request", got)
	}
}
