package tree

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"raxml/internal/rng"
)

// TestExactRoundTrip checks that the exact encoding keeps what Newick
// loses: node ids and neighbor-slot order of an arena that has been
// edited, and every branch-length bit.
func TestExactRoundTrip(t *testing.T) {
	tr := Random(names(9), rng.New(4))
	tr.SetEdgeLength(0, tr.Nodes[0].Neighbors[0], math.Pi/7) // not 10-digit exact
	tr.RemoveTip(3)
	tr.RemoveTip(5)
	tr.InsertTipOnEdge(5, tr.Edges()[4], 1.0/3) // reuses freed slots out of order
	tr.InsertTipOnEdge(3, tr.Edges()[2], 0.2)
	got, rest, err := DecodeExact(append(tr.AppendExact(nil), 0xAB), tr.TaxonNames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, []byte{0xAB}) {
		t.Errorf("rest %x, want ab", rest)
	}
	if !reflect.DeepEqual(got.Nodes, tr.Nodes) || len(got.free) != len(tr.free) {
		t.Error("arena changed in the round trip")
	}
}

func TestExactRejectsGarbage(t *testing.T) {
	tr := Random(names(6), rng.New(1))
	b := tr.AppendExact(nil)
	corrupt := func(f func(b []byte)) []byte {
		c := append([]byte(nil), b...)
		f(c)
		return c
	}
	for name, frame := range map[string][]byte{
		"empty":        nil,
		"truncated":    b[:len(b)-3],
		"lying count":  corrupt(func(c []byte) { binary.LittleEndian.PutUint32(c, 1<<30) }),
		"bad neighbor": corrupt(func(c []byte) { binary.LittleEndian.PutUint32(c[4+4:], 999) }),
		"tip taxon":    corrupt(func(c []byte) { binary.LittleEndian.PutUint32(c[4:], 2) }),
		"in-use flag":  corrupt(func(c []byte) { c[4+40] = 7 }),
	} {
		if _, _, err := DecodeExact(frame, tr.TaxonNames); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
