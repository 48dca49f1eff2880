package gridjob

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"raxml/internal/msa"
	"raxml/internal/parsimony"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/seqgen"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// testInputs builds a two-partition pattern set (so the column map and
// the site partition both travel) and a parsimony starting tree.
func testInputs(t testing.TB) (*msa.Patterns, *tree.Tree) {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 8, Chars: 240, Seed: 3, TreeScale: 0.5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.CompressPartitioned(a, []msa.PartitionDef{
		{Name: "g1", Ranges: []msa.SiteRange{{Lo: 0, Hi: 120, Stride: 1}}},
		{Name: "g2", Ranges: []msa.SiteRange{{Lo: 120, Hi: 240, Stride: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := threads.NewPool(1, pat.NumPatterns())
	defer pool.Close()
	return pat, parsimony.New(pat, pool).StepwiseAddition(rng.New(7))
}

func TestInitRoundTrip(t *testing.T) {
	pat, start := testInputs(t)
	ml := &Spec{
		Kind: ML, Threads: 2, Gamma: true, Alpha: 0.75, EmpiricalFreqs: true,
		Settings: search.Thorough(), Progress: time.Second, Start: start,
	}
	bs := &Spec{
		Kind: Bootstrap, Threads: 1, Settings: search.Bootstrap(), Replicates: 5,
		Checkpoint: Checkpoint{Done: 2, BsState: 11, ParsState: 12,
			Trees: []string{"a", "b"}, LnLs: []float64{-1, -2}},
		Prev: start,
	}
	for _, spec := range []*Spec{ml, bs} {
		gotPat, got, err := DecodeInit(EncodeInit(pat, spec))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotPat.Data, pat.Data) || !reflect.DeepEqual(gotPat.Weights, pat.Weights) ||
			!reflect.DeepEqual(gotPat.Parts, pat.Parts) || !reflect.DeepEqual(gotPat.ColumnPattern, pat.ColumnPattern) ||
			!reflect.DeepEqual(gotPat.SitePartition, pat.SitePartition) || gotPat.NumChars() != pat.NumChars() {
			t.Errorf("kind %d: patterns did not survive the round trip", spec.Kind)
		}
		// Trees compare by their exact encodings (a nil and an empty free
		// list are the same arena).
		for _, tr := range [][2]*tree.Tree{{got.Start, spec.Start}, {got.Prev, spec.Prev}} {
			if (tr[0] == nil) != (tr[1] == nil) || tr[0] != nil && !bytes.Equal(tr[0].AppendExact(nil), tr[1].AppendExact(nil)) {
				t.Errorf("kind %d: tree did not survive the round trip", spec.Kind)
			}
		}
		g, w := *got, *spec
		g.Start, g.Prev, w.Start, w.Prev = nil, nil, nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("kind %d: spec round trip\n got %+v\nwant %+v", spec.Kind, g, w)
		}
	}
}

// TestRunMatchesThroughCodec runs one bootstrap batch from its decoded
// init frame and from the original spec: the checkpoints (replicate
// Newick and lnL bits) must be identical, including when the batch
// resumes from a mid-stream checkpoint with an exactly shipped chain
// tree.
func TestRunMatchesThroughCodec(t *testing.T) {
	pat, _ := testInputs(t)
	spec := &Spec{
		Kind: Bootstrap, Threads: 1, Settings: search.Bootstrap(), Replicates: 4,
		Checkpoint: Checkpoint{BsState: rng.New(5).State(), ParsState: rng.New(6).State()},
	}
	collect := func(pat *msa.Patterns, spec *Spec) [][]byte {
		var cps [][]byte
		if _, err := Run(pat, spec, func(cp *Checkpoint) error {
			cps = append(cps, cp.Encode())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return cps
	}
	direct := collect(pat, spec)
	pat2, spec2, err := DecodeInit(EncodeInit(pat, spec))
	if err != nil {
		t.Fatal(err)
	}
	if shipped := collect(pat2, spec2); !reflect.DeepEqual(shipped, direct) {
		t.Fatal("shipped batch differs from the direct run")
	}

	// Resume after replicate 2 from the stored checkpoint.
	mid, err := DecodeCheckpoint(direct[1])
	if err != nil {
		t.Fatal(err)
	}
	resume := *spec
	resume.Checkpoint = *mid
	if resume.Prev, err = tree.ParseNewick(mid.PrevTree, pat.Names); err != nil {
		t.Fatal(err)
	}
	pat3, spec3, err := DecodeInit(EncodeInit(pat, &resume))
	if err != nil {
		t.Fatal(err)
	}
	if tail := collect(pat3, spec3); !reflect.DeepEqual(tail, direct[2:]) {
		t.Fatal("resumed batch differs from the uninterrupted stream")
	}
}

func TestDecodeInitRejectsGarbage(t *testing.T) {
	pat, start := testInputs(t)
	b := EncodeInit(pat, &Spec{Kind: ML, Threads: 1, Settings: search.Fast(), Start: start})
	for name, frame := range map[string][]byte{
		"empty":     nil,
		"truncated": b[:len(b)-5],
		"trailing":  append(append([]byte(nil), b...), 0),
		"magic":     append([]byte{0}, b[1:]...),
	} {
		if _, _, err := DecodeInit(frame); err == nil {
			t.Errorf("%s frame decoded", name)
		}
	}
	// A taxon count that lies about the bytes behind it.
	lie := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(lie[4:], 1<<31)
	if _, _, err := DecodeInit(lie); err == nil {
		t.Error("lying taxon count decoded")
	}
}

// FuzzDecodeInit hammers the job-spec decoder (patterns, spec, exact
// trees): hostile frames must error — never panic, never allocate for
// a lying count — and an accepted frame must re-encode stably.
func FuzzDecodeInit(f *testing.F) {
	pat, start := testInputs(f)
	ml := EncodeInit(pat, &Spec{Kind: ML, Threads: 1, Settings: search.Fast(), Start: start})
	bs := EncodeInit(pat, &Spec{Kind: Bootstrap, Threads: 1, Settings: search.Bootstrap(), Replicates: 3,
		Checkpoint: Checkpoint{Done: 1, Trees: []string{"x"}, LnLs: []float64{-3}}, Prev: start})
	f.Add(ml)
	f.Add(bs)
	f.Add(ml[:len(ml)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pat, spec, err := DecodeInit(data)
		if err != nil {
			return
		}
		again := EncodeInit(pat, spec)
		pat2, spec2, err := DecodeInit(again)
		if err != nil {
			t.Fatalf("re-decode of an accepted frame failed: %v", err)
		}
		if !bytes.Equal(EncodeInit(pat2, spec2), again) {
			t.Fatal("init frame round trip drifted")
		}
	})
}

// FuzzDecodeRelay hammers the decoders of the frames a worker sends
// back — relayed checkpoints and job results — with the same rules.
func FuzzDecodeRelay(f *testing.F) {
	cp := (&Checkpoint{Done: 2, BsState: 1, ParsState: 2, PrevTree: "(a,b,(c,d));",
		Trees: []string{"(a,b,(c,d));", "(a,c,(b,d));"}, LnLs: []float64{-10, -11}}).Encode()
	res := (&Result{Newick: "(a,b,(c,d));", LogLikelihood: -9.5, Dispatches: 42}).Encode()
	f.Add(cp)
	f.Add(res)
	f.Add(cp[:len(cp)-3])
	lie := append([]byte(nil), res...)
	binary.LittleEndian.PutUint32(lie[16:], math.MaxUint32)
	f.Add(lie)
	f.Fuzz(func(t *testing.T, data []byte) {
		if cp, err := DecodeCheckpoint(data); err == nil {
			if again, err := DecodeCheckpoint(cp.Encode()); err != nil || !bytes.Equal(again.Encode(), cp.Encode()) {
				t.Fatalf("checkpoint round trip drifted: %v", err)
			}
		}
		if res, err := DecodeResult(data); err == nil {
			if again, err := DecodeResult(res.Encode()); err != nil || !bytes.Equal(again.Encode(), res.Encode()) {
				t.Fatalf("result round trip drifted: %v", err)
			}
		}
	})
}
