package gridjob

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"raxml/internal/msa"
	"raxml/internal/tree"
)

// Wire format: little-endian throughout, string = u32 length + bytes,
// int slice = u32 count + i32 each. Every decoder checks a declared
// count against the bytes actually present before allocating for it,
// and rejects trailing bytes.

// initMagic versions the job-init frame ("GJI1").
const initMagic uint32 = 0x31494A47

// Decoder bounds: generous for any real job, small enough that a
// corrupt field cannot ask a worker for absurd crews or searches.
const (
	maxThreads    = 1 << 10
	maxSearchKnob = 1 << 16
	maxReplicates = 1 << 20
)

// EncodeInit encodes a job-init frame: the patterns (with the column
// map bootstrap resampling needs) followed by the spec.
func EncodeInit(pat *msa.Patterns, spec *Spec) []byte {
	b := binary.LittleEndian.AppendUint32(nil, initMagic)
	b = appendPatterns(b, pat)
	b = append(b, byte(spec.Kind))
	b = appendU32(b, uint32(spec.Threads))
	b = appendBool(b, spec.Gamma)
	b = appendF64(b, spec.Alpha)
	b = appendBool(b, spec.EmpiricalFreqs)
	s := &spec.Settings
	b = appendString(b, s.Name)
	for _, v := range []int{s.MinRadius, s.MaxRadius, s.MaxPasses, s.BranchRounds, s.MaxCats, s.RateGrid} {
		b = appendU32(b, uint32(v))
	}
	b = appendF64(b, s.Epsilon)
	b = appendBool(b, s.OptimizeModel)
	b = appendBool(b, s.OptimizePerSiteRates)
	b = binary.LittleEndian.AppendUint64(b, uint64(spec.Progress))
	switch spec.Kind {
	case ML:
		b = spec.Start.AppendExact(b)
	case Bootstrap:
		b = appendU32(b, uint32(spec.Replicates))
		cp := spec.Checkpoint
		cp.PrevTree = ""
		b = appendString(b, string(cp.Encode()))
		b = appendBool(b, spec.Prev != nil)
		if spec.Prev != nil {
			b = spec.Prev.AppendExact(b)
		}
	}
	return b
}

// DecodeInit parses a job-init frame.
func DecodeInit(b []byte) (*msa.Patterns, *Spec, error) {
	r := &reader{b: b}
	if magic := r.u32(); r.err == nil && magic != initMagic {
		return nil, nil, fmt.Errorf("gridjob: bad init magic %#x", magic)
	}
	pat := r.patterns()
	spec := &Spec{Kind: Kind(r.u8())}
	spec.Threads = r.bounded(1, maxThreads)
	spec.Gamma = r.bool()
	spec.Alpha = r.f64()
	spec.EmpiricalFreqs = r.bool()
	s := &spec.Settings
	s.Name = r.str()
	for _, v := range []*int{&s.MinRadius, &s.MaxRadius, &s.MaxPasses, &s.BranchRounds, &s.MaxCats, &s.RateGrid} {
		*v = r.bounded(0, maxSearchKnob)
	}
	s.Epsilon = r.f64()
	s.OptimizeModel = r.bool()
	s.OptimizePerSiteRates = r.bool()
	spec.Progress = time.Duration(r.u64())
	if r.err != nil {
		return nil, nil, r.err
	}
	if spec.Gamma && !(spec.Alpha > 0 && spec.Alpha < math.Inf(1)) {
		return nil, nil, fmt.Errorf("gridjob: bad gamma shape %g", spec.Alpha)
	}
	if spec.Progress < 0 || math.IsNaN(s.Epsilon) {
		return nil, nil, fmt.Errorf("gridjob: bad progress period or epsilon")
	}
	switch spec.Kind {
	case ML:
		spec.Start = r.tree(pat.Names)
	case Bootstrap:
		spec.Replicates = r.bounded(1, maxReplicates)
		if raw := r.take(r.count(1)); r.err == nil {
			cp, err := DecodeCheckpoint(raw)
			if err != nil {
				return nil, nil, err
			}
			if cp.Done > spec.Replicates {
				return nil, nil, fmt.Errorf("gridjob: checkpoint holds %d of %d replicates", cp.Done, spec.Replicates)
			}
			spec.Checkpoint = *cp
		}
		if r.bool() {
			spec.Prev = r.tree(pat.Names)
		}
	default:
		return nil, nil, fmt.Errorf("gridjob: unknown job kind %d", spec.Kind)
	}
	if err := r.end(); err != nil {
		return nil, nil, err
	}
	return pat, spec, nil
}

// Encode encodes a job-result frame.
func (res *Result) Encode() []byte {
	b := appendF64(nil, res.LogLikelihood)
	b = binary.LittleEndian.AppendUint64(b, uint64(res.Dispatches))
	return appendString(b, res.Newick)
}

// DecodeResult parses a job-result frame.
func DecodeResult(b []byte) (*Result, error) {
	r := &reader{b: b}
	res := &Result{LogLikelihood: r.f64(), Dispatches: int64(r.u64())}
	res.Newick = r.str()
	if err := r.end(); err != nil {
		return nil, err
	}
	if res.Dispatches < 0 {
		return nil, fmt.Errorf("gridjob: negative dispatch count")
	}
	return res, nil
}

// appendPatterns encodes every Patterns field a job reads: names, the
// state matrix, weights, partition spans, and the column map and site
// partition of bootstrap resampling.
func appendPatterns(b []byte, p *msa.Patterns) []byte {
	b = appendU32(b, uint32(len(p.Names)))
	for _, n := range p.Names {
		b = appendString(b, n)
	}
	b = appendU32(b, uint32(p.NumPatterns()))
	for _, row := range p.Data {
		for _, s := range row {
			b = append(b, byte(s))
		}
	}
	b = appendInts(b, p.Weights)
	b = appendU32(b, uint32(len(p.Parts)))
	for _, pr := range p.Parts {
		b = appendString(b, pr.Name)
		b = appendU32(b, uint32(pr.Lo))
		b = appendU32(b, uint32(pr.Hi))
	}
	b = appendInts(b, p.ColumnPattern)
	return appendInts(b, p.SitePartition)
}

func (r *reader) patterns() *msa.Patterns {
	nTaxa := r.count(4)
	names := make([]string, nTaxa)
	for i := range names {
		names[i] = r.str()
	}
	nPat := r.u32()
	if r.err == nil && (nTaxa < 4 || nPat < 1 || uint64(nTaxa)*uint64(nPat) > uint64(len(r.b))) {
		r.fail(fmt.Sprintf("%d taxa x %d patterns", nTaxa, nPat))
	}
	if r.err != nil {
		return nil
	}
	data := make([][]msa.State, nTaxa)
	for i := range data {
		raw := r.take(int(nPat))
		row := make([]msa.State, nPat)
		for k, s := range raw {
			if s > byte(msa.Gap) {
				r.fail(fmt.Sprintf("state %d", s))
				return nil
			}
			row[k] = msa.State(s)
		}
		data[i] = row
	}
	weights := r.ints(0, math.MaxInt32)
	total := 0
	for _, w := range weights {
		total += w
	}
	nParts := r.count(12)
	var parts []msa.PartRange
	for i, lo := 0, 0; i < nParts && r.err == nil; i++ {
		pr := msa.PartRange{Name: r.str(), Lo: int(r.u32()), Hi: int(r.u32())}
		if pr.Lo != lo || pr.Hi <= pr.Lo || pr.Hi > int(nPat) || (i == nParts-1 && pr.Hi != int(nPat)) {
			r.fail(fmt.Sprintf("partition span [%d, %d)", pr.Lo, pr.Hi))
		}
		parts = append(parts, pr)
		lo = pr.Hi
	}
	colPat := r.ints(0, int(nPat)-1)
	sitePart := r.ints(0, max(nParts, 1)-1)
	if r.err == nil && (len(weights) != int(nPat) || len(colPat) != total ||
		(len(sitePart) != 0 && len(sitePart) != total)) {
		r.fail("pattern, weight and column counts disagree")
	}
	if r.err != nil {
		return nil
	}
	p := msa.FromParts(names, data, weights, parts)
	p.ColumnPattern = colPat
	if len(sitePart) > 0 {
		p.SitePartition = sitePart
	}
	return p
}

func (r *reader) tree(names []string) *tree.Tree {
	if r.err != nil {
		return nil
	}
	t, rest, err := tree.DecodeExact(r.b, names)
	if err != nil {
		r.err = fmt.Errorf("gridjob: %w", err)
		return nil
	}
	r.b = rest
	return t
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

func appendInts(b []byte, vs []int) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU32(b, uint32(int32(v)))
	}
	return b
}

// reader consumes a frame; the first malformed read poisons it and
// every later read returns zero values, so decoders check err once.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("gridjob: malformed frame: %s", what)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b) < n {
		r.fail("truncated")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail("bool")
	return false
}

// bounded reads a u32 that must lie in [lo, hi].
func (r *reader) bounded(lo, hi int) int {
	v := int(r.u32())
	if r.err == nil && (v < lo || v > hi) {
		r.fail(fmt.Sprintf("value %d outside [%d, %d]", v, lo, hi))
	}
	return v
}

// count reads a u32 element count and checks that many elements of at
// least minSize bytes each can still be present.
func (r *reader) count(minSize int) int {
	n := int(r.u32())
	if r.err == nil && n > len(r.b)/minSize {
		r.fail(fmt.Sprintf("count %d in %d bytes", n, len(r.b)))
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *reader) str() string {
	return string(r.take(r.count(1)))
}

// ints reads an int slice whose every element lies in [lo, hi].
func (r *reader) ints(lo, hi int) []int {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(r.u32()))
		if r.err == nil && (out[i] < lo || out[i] > hi) {
			r.fail(fmt.Sprintf("element %d outside [%d, %d]", out[i], lo, hi))
		}
	}
	return out
}

// end fails a frame with unread bytes.
func (r *reader) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("gridjob: %d trailing bytes", len(r.b))
	}
	return r.err
}
