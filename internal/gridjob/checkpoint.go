package gridjob

import (
	"encoding/binary"
	"fmt"
)

// Checkpoint is the replicate-boundary state of one bootstrap batch
// job: everything needed to regenerate the rest of the stream
// bit-identically after a restart — the done count, both RNG stream
// positions (the -x resampling stream and the -p stepwise-addition
// stream), the previous replicate's tree that seeds the next rapid
// search, and the finished replicates themselves. A remote batch
// relays one after every replicate; the master stores them.
//
// An ML job needs no checkpoint: it is one replicate, retried from its
// own start tree.
type Checkpoint struct {
	// Done counts finished replicates (the next intra-stream index).
	Done int
	// BsState and ParsState are the rng.RNG states of the two streams
	// as of the boundary.
	BsState, ParsState uint64
	// PrevTree is the reuse-chain tree in Newick ("" before the first
	// replicate). rapidbs canonicalizes its chain through Newick, so
	// this text is the chain tree exactly.
	PrevTree string
	// Trees and LnLs are the finished replicates, in stream order.
	Trees []string
	LnLs  []float64
}

// ckptMagic versions the checkpoint format ("BCP1").
const ckptMagic uint32 = 0x42435031

// Encode serializes the checkpoint.
func (cp *Checkpoint) Encode() []byte {
	b := binary.LittleEndian.AppendUint32(nil, ckptMagic)
	b = appendU32(b, uint32(cp.Done))
	b = binary.LittleEndian.AppendUint64(b, cp.BsState)
	b = binary.LittleEndian.AppendUint64(b, cp.ParsState)
	b = appendString(b, cp.PrevTree)
	b = appendU32(b, uint32(len(cp.Trees)))
	for i, t := range cp.Trees {
		b = appendString(b, t)
		b = appendF64(b, cp.LnLs[i])
	}
	return b
}

// DecodeCheckpoint parses a checkpoint produced by Encode — a stored
// one, or one a worker relayed.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	r := &reader{b: b}
	if magic := r.u32(); r.err == nil && magic != ckptMagic {
		return nil, fmt.Errorf("gridjob: bad checkpoint magic %#x", magic)
	}
	cp := &Checkpoint{Done: r.bounded(0, maxReplicates)}
	cp.BsState = r.u64()
	cp.ParsState = r.u64()
	cp.PrevTree = r.str()
	n := r.count(12) // each replicate: string length + lnL at least
	for i := 0; i < n && r.err == nil; i++ {
		cp.Trees = append(cp.Trees, r.str())
		cp.LnLs = append(cp.LnLs, r.f64())
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return cp, nil
}
