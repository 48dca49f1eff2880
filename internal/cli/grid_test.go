package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raxml/internal/msa"
	"raxml/internal/seqgen"
)

// TestRaxmlGrid pins the -grid CLI path: the same analysis run
// master-local (-grid 0, the serial reference) and over a 2-worker chan
// fleet must produce identical consensus and best-tree files, and every
// run must leave a JSONL event trace behind.
func TestRaxmlGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid analysis skipped in -short mode")
	}
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)

	run := func(name string, workers string) map[string]string {
		var out bytes.Buffer
		err := Raxml([]string{
			"-s", align, "-n", name, "-N", "8", "-starts", "2", "-grid-batch", "4",
			"-grid", workers, "-w", dir, "-p", "42", "-x", "99",
		}, &out)
		if err != nil {
			t.Fatalf("grid run %s: %v\n%s", name, err, out.String())
		}
		files := map[string]string{}
		for _, f := range []string{"RAxML_bestTree", "RAxML_bipartitions", "RAxML_bootstrap", "RAxML_GreedyConsensusTree"} {
			data, err := os.ReadFile(filepath.Join(dir, f+"."+name))
			if err != nil {
				t.Fatalf("%s not written: %v", f, err)
			}
			files[f] = string(data)
		}
		return files
	}

	ref := run("gref", "0")
	got := run("gfleet", "2")
	for f, want := range ref {
		if got[f] != want {
			t.Errorf("%s differs between master-local and fleet runs:\n got %s\nwant %s", f, got[f], want)
		}
	}

	trace, err := os.ReadFile(filepath.Join(dir, "RAxML_gridTrace.gfleet.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{`"ev":"admit"`, `"ev":"lease"`, `"ev":"checkpoint"`, `"ev":"job-done"`} {
		if !strings.Contains(string(trace), ev) {
			t.Errorf("trace missing %s", ev)
		}
	}
}

// TestRaxmlGridKeepsEveryRankBusy pins the CLI's job concurrency: a
// grid job holds at most one rank, so -grid 3 must run enough jobs at
// once (R+1) that three distinct workers hold jobs at the same time.
func TestRaxmlGridKeepsEveryRankBusy(t *testing.T) {
	if testing.Short() {
		t.Skip("grid analysis skipped in -short mode")
	}
	dir := t.TempDir()
	// Larger than writeTestAlignment's, so that the first wave of jobs
	// overlaps by tens of milliseconds even on a loaded host.
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 12, Chars: 800, Seed: 5, TreeScale: 0.5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	var phy bytes.Buffer
	if err := msa.WritePHYLIP(&phy, a); err != nil {
		t.Fatal(err)
	}
	align := filepath.Join(dir, "busy.phy")
	if err := os.WriteFile(align, phy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Raxml([]string{
		"-s", align, "-n", "g3", "-N", "16", "-starts", "2", "-grid-batch", "4",
		"-grid", "3", "-w", dir, "-p", "42", "-x", "99",
	}, &out); err != nil {
		t.Fatalf("grid run: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "RAxML_gridTrace.g3.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// A worker is held from a lease until the leasing job is done (or
	// retried), or until it is leased again.
	held := map[int]string{} // worker -> job
	peak := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Ev      string `json:"ev"`
			Job     string `json:"job"`
			Workers []int  `json:"workers"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		switch rec.Ev {
		case "lease":
			if len(rec.Workers) != 1 {
				t.Fatalf("job %s leased %v, want one rank", rec.Job, rec.Workers)
			}
			held[rec.Workers[0]] = rec.Job
			peak = max(peak, len(held))
		case "job-done", "restripe":
			for w, job := range held {
				if job == rec.Job {
					delete(held, w)
				}
			}
		}
	}
	if peak != 3 {
		t.Errorf("-grid 3 held at most %d ranks at once, want all 3", peak)
	}
}
