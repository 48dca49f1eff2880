package msa

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestParsePHYLIPHostileHeader pins the server-side OOM: a body whose
// PHYLIP header claims two billion taxa must be an ordinary parse error,
// with allocation bounded by the bytes actually present — not a fatal
// out-of-memory that no HTTP recovery can catch.
func TestParsePHYLIPHostileHeader(t *testing.T) {
	const body = "2000000000 4\nA ACGT\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, parse := range []func() (*Alignment, error){
		func() (*Alignment, error) { return ParsePHYLIP(strings.NewReader(body)) },
		func() (*Alignment, error) { return Sniff([]byte(body)) },
		func() (*Alignment, error) {
			return ParsePHYLIP(strings.NewReader("4 2000000000\nA ACGT\nB ACGT\nC ACGT\nD ACGT\n"))
		},
	} {
		if _, err := parse(); err == nil {
			t.Error("hostile header parsed")
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("parsing hostile headers allocated %d bytes", grew)
	}
}

// FuzzParsePHYLIP feeds arbitrary bytes to the PHYLIP parser: it must
// error or succeed — never panic, never allocate by a header's claims —
// and an accepted alignment must survive a write/parse round trip.
func FuzzParsePHYLIP(f *testing.F) {
	f.Add([]byte("4 8\nA ACGTACGT\nB ACGTACGA\nC ACGAACGT\nD TCGTACGT\n"))
	f.Add([]byte("4 8\nA ACGT\nB ACGT\nC ACGA\nD TCGT\n\nACGT\nACGA\nACGT\nACGT\n"))
	f.Add([]byte("2000000000 4\nA ACGT\n"))
	f.Add([]byte("4 2000000000\nA ACGT\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParsePHYLIP(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePHYLIP(&buf, a); err != nil {
			t.Fatal(err)
		}
		back, err := ParsePHYLIP(&buf)
		if err != nil {
			t.Fatalf("re-parse of a written alignment failed: %v", err)
		}
		if !reflect.DeepEqual(back.Names, a.Names) || !reflect.DeepEqual(back.Seqs, a.Seqs) {
			t.Fatal("PHYLIP round trip drifted")
		}
	})
}
