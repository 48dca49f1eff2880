package tree

import (
	"encoding/binary"
	"fmt"
	"math"
)

// exactNodeBytes is one node's encoded size: taxon, three neighbor ids
// (int32 each), three branch lengths (float64 bits) and the InUse flag.
const exactNodeBytes = 4 + 3*4 + 3*8 + 1

// AppendExact appends the tree's exact encoding to b: the node arena
// slot by slot (taxon, neighbor slots, branch-length bits, InUse) and
// the free list. Unlike Newick it preserves node ids, neighbor-slot
// order and every float64 bit, so a search started from the decoded
// tree enumerates the same moves and reaches the same bits as one
// started from t. Taxon names are not encoded; the decoder supplies
// them.
func (t *Tree) AppendExact(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Nodes)))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(n.Taxon)))
		for _, v := range n.Neighbors {
			b = binary.LittleEndian.AppendUint32(b, uint32(int32(v)))
		}
		for _, l := range n.Lengths {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(l))
		}
		if n.InUse {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.free)))
	for _, id := range t.free {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return b
}

// DecodeExact parses an AppendExact encoding at the head of b over
// taxonNames and returns the tree and the bytes after it. The decoded
// tree must be a complete, valid topology (Validate) with tips in
// their canonical slots and a free list of distinct unused internal
// slots; counts are checked against the bytes present before anything
// is allocated.
func DecodeExact(b []byte, taxonNames []string) (*Tree, []byte, error) {
	bad := func(format string, args ...any) (*Tree, []byte, error) {
		return nil, nil, fmt.Errorf("tree: exact encoding: "+format, args...)
	}
	if len(b) < 4 {
		return bad("truncated")
	}
	nNodes := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	nTaxa := len(taxonNames)
	if nNodes < nTaxa || nNodes > len(b)/exactNodeBytes {
		return bad("%d nodes for %d taxa in %d bytes", nNodes, nTaxa, len(b))
	}
	t := &Tree{TaxonNames: append([]string(nil), taxonNames...), Nodes: make([]Node, nNodes)}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		n.ID = i
		n.Taxon = int(int32(binary.LittleEndian.Uint32(b)))
		for s := range n.Neighbors {
			v := int(int32(binary.LittleEndian.Uint32(b[4+4*s:])))
			if v < -1 || v >= nNodes {
				return bad("node %d links to %d of %d", i, v, nNodes)
			}
			n.Neighbors[s] = v
			n.Lengths[s] = math.Float64frombits(binary.LittleEndian.Uint64(b[16+8*s:]))
		}
		switch b[40] {
		case 0:
		case 1:
			n.InUse = true
		default:
			return bad("node %d has InUse byte %d", i, b[40])
		}
		b = b[exactNodeBytes:]
		if (i < nTaxa && n.Taxon != i) || (i >= nTaxa && n.Taxon != -1) {
			return bad("node %d carries taxon %d", i, n.Taxon)
		}
	}
	if len(b) < 4 {
		return bad("truncated free list")
	}
	nFree := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if nFree > nNodes-nTaxa || nFree > len(b)/4 {
		return bad("%d free slots", nFree)
	}
	seen := make(map[int]bool, nFree)
	for i := 0; i < nFree; i++ {
		id := int(binary.LittleEndian.Uint32(b[4*i:]))
		if id < nTaxa || id >= nNodes || t.Nodes[id].InUse || seen[id] {
			return bad("free slot %d is not a distinct unused internal node", id)
		}
		seen[id] = true
		t.free = append(t.free, id)
	}
	b = b[4*nFree:]
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	return t, b, nil
}
