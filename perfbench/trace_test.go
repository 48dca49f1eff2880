package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := newRecorder()
	root := r.add(span{Run: "a", Name: "request", Start: at(0), End: at(100)})
	// Two overlapping children cover [10, 50]; a third sticks out of the
	// parent and covers [90, 100] of it.
	c1 := r.add(span{Run: "a", Parent: root, Name: "grid.job", Start: at(10), End: at(40)})
	r.add(span{Run: "a", Parent: root, Name: "grid.job", Start: at(20), End: at(50)})
	r.add(span{Run: "a", Parent: root, Name: "server.fetch", Start: at(90), End: at(120)})
	r.add(span{Run: "a", Parent: c1, Name: "fabric.lease", Start: at(15), End: at(25)})

	self := selfTimes(r.snapshot())
	if got, want := self[root], 50*time.Millisecond; got != want {
		t.Errorf("root self = %v, want %v", got, want)
	}
	if got, want := self[c1], 20*time.Millisecond; got != want {
		t.Errorf("job self = %v, want %v", got, want)
	}
	if got := accountedRatio(r.snapshot(), "request"); got != 0.5 {
		t.Errorf("accounted ratio = %g, want 0.5", got)
	}
}

func TestAccountedRatioLooksBelowExpandedChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := newRecorder()
	root := r.add(span{Run: "a", Name: "request", Start: at(0), End: at(100)})
	r.add(span{Run: "a", Parent: root, Name: "server.submit", Start: at(0), End: at(10)})
	exec := r.add(span{Run: "a", Parent: root, Name: "server.exec", Start: at(10), End: at(90)})
	r.add(span{Run: "a", Parent: root, Name: "server.fetch", Start: at(90), End: at(100)})
	// Jobs cover [20, 60] of exec; one sticks out of it and counts only
	// up to exec's end.
	r.add(span{Run: "a", Parent: exec, Name: "grid.job", Start: at(20), End: at(50)})
	r.add(span{Run: "a", Parent: exec, Name: "grid.job", Start: at(40), End: at(60)})
	r.add(span{Run: "a", Parent: exec, Name: "grid.job", Start: at(85), End: at(95)})

	if got := accountedRatio(r.snapshot(), "request"); got != 1 {
		t.Errorf("children only: accounted ratio = %g, want 1", got)
	}
	// submit 10 + jobs 40 + 5 (clipped at exec's end, then fetch) + fetch 10.
	if got := accountedRatio(r.snapshot(), "request", "server.exec"); got != 0.65 {
		t.Errorf("below exec: accounted ratio = %g, want 0.65", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	if id := r.add(span{Name: "x"}); id != 0 {
		t.Errorf("nil recorder returned id %d", id)
	}
	if r.snapshot() != nil {
		t.Error("nil recorder has spans")
	}
}

func TestWriteSpansCarriesSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	r := newRecorder()
	root := r.add(span{Run: "a", Name: "core.Run", Start: t0, End: t0.Add(2 * time.Second)})
	r.add(span{Run: "a", Parent: root, Name: "core.rank0", Start: t0, End: t0.Add(time.Second)})
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if len(got) != 2 || got[0]["self_s"] != 1.0 || got[0]["dur_s"] != 2.0 || got[1]["parent"] != float64(root) {
		t.Errorf("spans file = %v", got)
	}
}
