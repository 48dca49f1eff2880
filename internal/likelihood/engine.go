// Package likelihood implements the phylogenetic likelihood function —
// the computational core of RAxML and the code whose per-pattern loops
// the paper's fine-grained Pthreads parallelization targets.
//
// The engine computes log L(tree, branch lengths, model) for an
// alignment compressed to weighted site patterns (package msa) under a
// GTR model with CAT or Γ rate heterogeneity (package gtr), using
// Felsenstein's pruning algorithm over conditional likelihood vectors
// (CLVs) with numerical rescaling. All per-pattern kernels (newview,
// evaluate, branch-length derivatives) are partitioned over a
// threads.Pool, reproducing the master/worker structure of RAxML's
// Pthreads code: the pool *is* the fine-grained parallelism whose
// scalability in the number of patterns drives the paper's "optimal
// thread count grows with patterns" result.
//
// Partitions. A multi-gene alignment assigns every site to a partition
// (RAxML's -q files; msa.CompressPartitioned) and every partition owns
// an independent model instance — base frequencies, exchangeabilities,
// Γ shape or CAT assignment (gtr.PartitionSet). The engine generalizes
// the whole stack from one implicit partition to N explicit ones: the
// pattern axis is the partition-major concatenation of the per-gene
// pattern sets, CLV tiles are segmented per partition, traversal
// descriptors carry per-(entry, partition) transition matrices, and the
// total log-likelihood is the sum of per-partition components under
// linked (shared) branch lengths. The single-gene engine is simply the
// one-partition special case running the same code.
//
// Directed CLVs. An unrooted tree has no fixed root; the CLV at a node
// depends on the viewing direction. The engine stores one CLV per
// directed edge (node, neighbor-slot): clv(u, i) is the conditional
// likelihood of the subtree seen from u looking away from neighbor i.
// CLVs are computed lazily with validity flags; topology edits and
// branch-length changes invalidate precisely the directions that can
// observe the edit, and model changes invalidate everything.
//
// Flat CLV arena. All directed CLVs live in ONE contiguous []float64
// owned by the engine, carved into fixed-size tiles. A tile is the
// concatenation of per-partition segments, each pattern-major
// (segment + local_pattern·nCat·4 + cat·4 + state) and padded to whole
// 64-byte cache lines, so a worker's stripe of any partition's CLV is
// one contiguous, streamable block and stripe boundaries snapped
// relative to partition starts never share a line. Directed edges are
// bound to tiles lazily on first use through a free list, so SPR-heavy
// searches and bootstrap replicates reuse tiles instead of growing the
// heap. See docs/memory-layout.md for the layout sketch and offset
// formulas.
//
// Traversal descriptors. Lazy CLV maintenance is split from execution,
// mirroring RAxML's traversalInfo machinery (see traversal.go): the
// master plans a traversal — the ordered list of stale directed CLVs
// with child references and branch lengths — precomputes every entry's
// per-partition transition matrices, and posts the whole plan to the
// pool as ONE job code (threads.JobEvaluate, JobMakenewz, ...). Workers
// walk the full descriptor over their private pattern ranges, so a
// full-tree relikelihood — partitioned or not — costs one barrier
// crossing, and posting allocates nothing. The serial path is the same
// code run inline by a 1-worker pool.
package likelihood

import (
	"fmt"
	"math"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

const (
	// scaleThreshold triggers CLV rescaling: when every entry of a
	// pattern's CLV drops below it, the pattern is multiplied by
	// scaleFactor and a per-pattern counter incremented.
	scaleThreshold = 1e-256
	scaleFactor    = 1e256
	logScaleFactor = 589.4971701159494 // ln(1e256)
)

// noTile marks a directed edge with no arena tile bound yet.
const noTile = int32(-1)

// stripeQuantum is the pattern quantum worker stripes are snapped to:
// 16 patterns is a whole number of 64-byte cache lines for every tiled
// buffer (2 CAT patterns/line, 1+ GAMMA patterns/line, 16 int32 scale
// counters/line), and partition segments are padded to the same lines,
// so snapping relative to partition starts keeps workers off shared
// lines in both arenas. It is also a whole number of SIMD lane blocks:
// a worker's chunk always holds complete 4-lane pattern blocks, so the
// dispatched vector kernels (kernels_dispatch.go) stream [16]float64
// blocks without ever splitting a pattern across workers.
const stripeQuantum = 16

// Dispatcher is the fine-grained execution substrate the engine posts
// its job codes to. *threads.Pool — the in-process Pthreads analogue —
// is the canonical implementation; finegrain.Pool implements the same
// contract with workers distributed over fabric ranks (remote
// processes), each owning a stripe of the pattern axis. The engine is
// written against this interface so the single-process and distributed
// hybrids run exactly the same planning, kernel and reduction code:
// the contract is job codes in, deterministic worker-order (and, for
// the distributed pool, rank-order) reductions out, cooperative abort.
type Dispatcher interface {
	// Post runs one job code on every worker and returns when all have
	// finished (one barrier crossing).
	Post(runner threads.JobRunner, code threads.JobCode)
	// Workers returns the number of local workers (the crew executing
	// RunJob in this process).
	Workers() int
	// Slot returns local worker w's fixed-width reduction slot.
	Slot(w int) *[threads.SlotWidth]float64
	// SumSlots and SumSlots2 combine reduction partials across ALL
	// workers of the substrate (local and remote), deterministically.
	SumSlots(i int) float64
	SumSlots2(i, j int) (float64, float64)
	// EnsureWide, WideSlot and SumWide are the variable-width
	// per-partition reduction storage (threads.Pool semantics).
	EnsureWide(width int)
	WideSlot(w int) []float64
	SumWide(i int) float64
	// AlignRangesAt snaps local worker stripes to tile quanta.
	AlignRangesAt(quantum int, starts []int)
	// ForkJoin is the master-side precomputation helper (no dispatch).
	ForkJoin(n, grain int, fn func(lo, hi int))
	// ForkJoinRange is ForkJoin over an arbitrary window [lo, hi) — the
	// chunked P-fill of the overlapped dispatch pipeline runs through it.
	ForkJoinRange(lo, hi, grain int, fn func(lo, hi int))
	// Dispatches counts barrier crossings paid so far.
	Dispatches() int64
	// AbortJob / Aborted are the cooperative-cancel pair.
	AbortJob()
	Aborted() bool
}

// partState is one partition's slice of the engine: its span on the
// concatenated pattern axis, its model instance, and the offsets of its
// segment within every CLV tile and matrix scratch buffer.
type partState struct {
	name   string
	lo, hi int // global pattern span [lo, hi)

	// fOff is the float64 offset of the partition's CLV segment within
	// a tile; sOff the int32 offset of its scale segment. Both segment
	// strides are padded to whole 64-byte cache lines.
	fOff, sOff int

	model *gtr.Model
	rates *gtr.RateCategories

	// pOff is the partition's offset into every per-category matrix
	// buffer (prefix sum of NumCats over preceding partitions; see
	// ensureP). A partition's matrices for category c live at pOff+c.
	pOff int
}

// Engine evaluates and optimizes the likelihood of trees over one
// (possibly partitioned) pattern set. An Engine is bound to at most one
// tree at a time (AttachTree) and is not safe for concurrent use by
// multiple goroutines; coarse-grained parallelism uses one Engine per
// rank.
type Engine struct {
	pat   *msa.Patterns
	parts []partState
	pool  Dispatcher

	tree    *tree.Tree
	weights []int

	nPatterns int
	nCat      int  // CLV categories per pattern: 1 for CAT, k for GAMMA
	isCAT     bool // uniform across partitions (gtr.PartitionSet.Validate)
	totalCats int  // Σ per-partition matrix category counts (ensureP)

	// kern is the kernel implementation set bound at construction
	// (kernels_dispatch.go): scalar reference or AVX2 assembly for the
	// hot loops of both rate models, selected by the process-wide
	// SetKernelMode.
	kern *kernelTable

	// The flat CLV arena. arena holds nTiles tiles of tileFloats
	// float64 each; scaleArena holds the matching rescaling counters,
	// tileScale int32 per tile. A tile is the concatenation of
	// per-partition segments, every segment stride padded up to full
	// 64-byte cache lines (8 float64 / 16 int32) so each segment starts
	// on its own line and partition-relative stripe snapping keeps
	// workers off each other's lines. tileOf[node*3+slot] maps a
	// directed edge to its tile (noTile until first needed); freeTiles
	// recycles tiles released by AttachTree. The float64 offset of
	// directed CLV (node, slot) at global pattern k (in partition p),
	// category c, state s is
	//
	//	tileOf[node*3+slot]*tileFloats + p.fOff + (k-p.lo)*nCat*4 + c*4 + s
	arena      []float64
	scaleArena []int32
	tileOf     []int32
	freeTiles  []int32
	nTiles     int
	tileFloats int
	tileScale  int

	// siteBuf holds one siteStride row of site-value scratch per local
	// worker for the batched evaluate and insertion-scan reductions
	// (siteScratch). It lives on the heap because a stack buffer handed
	// to a kernel-table func value escapes, one allocation per call.
	siteBuf []float64

	// valid[node*3+slot] marks CLVs consistent with the current tree.
	// invStack is the reused walk stack of invalidateSide.
	valid    []bool
	invStack [][2]int

	// tipFlat packs every taxon's (undirected) tip CLV into one flat
	// block: tipFlat[taxon*nPatterns*4 + pattern*4 + state], shared
	// across categories and partitions (tip states are model-free).
	tipFlat []float64
	// tipCodeMask[taxon] has bit c set iff ambiguity code c occurs in
	// the taxon's pattern row — the tip lookup tables are only filled
	// for codes that can be indexed.
	tipCodeMask []uint16

	// scratch transition matrices, indexed [part.pOff + category]
	// (master-computed, read-only inside parallel sections). pHalf and
	// pPend serve the insertion-scan kernel: P(t/2) toward both ends of
	// the candidate edge, and the pendant-branch matrices toward the
	// subtree, refilled only when pendKey no longer matches (every
	// candidate of one pruning shares the pendant length). pEval/pD1/pD2
	// serve the evaluate and makenewz kernels. Per-entry newview
	// matrices live in the traversal arena.
	pHalf, pPend [][16]float64
	pendKey      pendantKey
	pEval        [][16]float64
	pD1, pD2     [][16]float64

	// traversal descriptor state (see traversal.go): the ordered list
	// of stale directed CLVs posted to the pool as one job, its
	// transition-matrix arena, the tip-lookup-table arena, and the
	// window workers execute. All buffers are reused across jobs for
	// the engine's whole life.
	trav            []travEntry
	travP           [][16]float64
	travLUT         []float64
	travLo, travHi  int
	perNodeDispatch bool

	// travFillNext is the absolute descriptor index up to which P
	// matrices and tip LUTs are filled. A pipelining Dispatcher (see
	// fillPipeliner) defers the fill from prepareTraversal into chunked
	// FillTravChunk calls interleaved with frame encodes, so P-fills of
	// later entries overlap the shipping of earlier ones; non-pipelining
	// pools fill everything in prepareTraversal and leave this == len.
	// fillTravFn/fillWireFn are the bound fill methods, created once so
	// the hot path never re-allocates a method-value closure.
	travFillNext int
	fillTravFn   func(lo, hi int)
	fillWireFn   func(lo, hi int)

	// Delta-descriptor ship cache (master side): wireShipped[node*3+slot]
	// is the last descriptor entry shipped full for that directed edge,
	// valid while wireShippedOK. An unchanged entry re-ships as a 9-byte
	// ref instead of the 49-byte full form. Cleared whenever a frame
	// carries a model block or tile reset — the workers clear their edge
	// caches on exactly the same flags, so both sides stay coherent.
	wireShipped   []WireEntry
	wireShippedOK []bool

	// Worker-side edge cache (remote.go): per directed edge, the last
	// fully shipped entry with its rebuilt P matrices and tip LUTs, so a
	// ref entry reuses the cached matrices bit-identically instead of
	// recomputing them. wireFillIdx collects the indices of entries that
	// DO need a fill this job.
	wireCache   []wireEdgeCache
	wireFillIdx []int

	// job inputs published by the master before posting a job code:
	// the endpoint views of the edge being evaluated/differentiated,
	// the three views of an insertion scan, and the site-LL output.
	jobVA, jobVB        childView
	jobVX, jobVY, jobVS childView
	jobDst              []float64

	// wire metadata of the current job, recorded alongside the resolved
	// views so a distributed Dispatcher can re-encode the job for
	// remote ranks (see remote.go): the job's branch lengths and the
	// symbolic (tip taxon / directed-edge) form of each view.
	jobT, jobT2 float64
	jobWire     [3]WireView
	jobNViews   int

	// modelEpoch counts invalidation points at which model state
	// (parameters, rate treatments, weights) may have changed; a
	// distributed Dispatcher ships a model-sync block whenever the
	// epoch moved since its last broadcast. Every model mutation goes
	// through InvalidateAll (stale CLVs otherwise), so bumping there
	// can never miss a change. Topology edits of the search go through
	// the exact invalidations (DanglingPrune, Plug, ...) and leave the
	// epoch alone, so a lazy-SPR pass ships no model block and keeps
	// the delta-descriptor caches warm. topoEpoch counts AttachTree
	// calls, after which remote ranks must reset their tile bindings.
	modelEpoch uint64
	topoEpoch  uint64

	// serialPool is the lazily created fallback of ThreadPool for
	// engines running on a non-threads Dispatcher.
	serialPool *threads.Pool

	// wire buffers, reused across jobs (remote.go): the encoded job
	// frame on the master, the encoded partial and site-LL scratch on
	// a worker rank.
	wireBuf        []byte
	wirePartialBuf []byte
	wireSiteLL     []float64
	wireWide       []float64

	// statistics
	newviewCount int64
	evalCount    int64

	// Eigen-basis makenewz state (makenewz.go). sumtable is the
	// persistent worker-owned sumtable arena: ONE tile-shaped buffer
	// (tileFloats float64, the same per-partition padded segments as a
	// CLV tile) holding the per-(site, category) 4-entry eigen-basis
	// sumtables of the branch being Newton-optimized; each worker fills
	// and reads only its stripe. mkzExp/mkzD1/mkzD2 are the per-
	// (partition, category) exponential factors of the current iterate
	// (4 float64 each at [(pOff+c)*4]), the only thing a distributed
	// dispatcher ships per Newton iteration. lastNewtonIters records the
	// iteration count of the most recent OptimizeBranch (dispatch-
	// accounting tests); legacyMakenewz routes OptimizeBranch through
	// the full-matrix JobMakenewz kernel (golden tests, ablation).
	sumtable             []float64
	mkzExp, mkzD1, mkzD2 []float64
	lastNewtonIters      int
	legacyMakenewz       bool

	// edgeSweep/sweepStack are the reused buffers of the DFS edge
	// ordering OptimizeAllBranches sweeps in (optimize.go).
	edgeSweep  []tree.Edge
	sweepStack [][2]int
}

// Config carries the optional knobs of New.
type Config struct {
	// Pool supplies fine-grained parallelism: a *threads.Pool for the
	// in-process hybrid, a finegrain.Pool for distributed workers; nil
	// means a serial single-worker pool.
	Pool Dispatcher
}

// New creates a single-partition engine over the pattern set with the
// given model and rate treatment — the pre-partition constructor, kept
// as the one-gene special case: the whole pattern axis forms one
// partition regardless of pat.Parts. The engine takes ownership of none
// of its arguments; model and rates may be mutated through the engine's
// optimizers.
func New(pat *msa.Patterns, model *gtr.Model, rates *gtr.RateCategories, cfg Config) (*Engine, error) {
	set := &gtr.PartitionSet{
		Models: []*gtr.Model{model},
		Rates:  []*gtr.RateCategories{rates},
	}
	span := []msa.PartRange{{Name: "all", Lo: 0, Hi: pat.NumPatterns()}}
	return build(pat, span, set, cfg)
}

// NewPartitioned creates an engine over a partitioned pattern set
// (msa.CompressPartitioned) with one model instance per partition. The
// set must pass gtr.(*PartitionSet).Validate against the partition
// sizes: one treatment kind for all partitions, CAT assignments indexed
// locally (partition-relative).
func NewPartitioned(pat *msa.Patterns, set *gtr.PartitionSet, cfg Config) (*Engine, error) {
	spans := pat.PartRanges()
	sizes := make([]int, len(spans))
	for i, r := range spans {
		sizes[i] = r.Len()
	}
	if err := set.Validate(sizes); err != nil {
		return nil, fmt.Errorf("likelihood: %v", err)
	}
	return build(pat, spans, set, cfg)
}

// build is the shared constructor: lay out the per-partition tile
// segments, bind the pool, and size the scratch buffers.
func build(pat *msa.Patterns, spans []msa.PartRange, set *gtr.PartitionSet, cfg Config) (*Engine, error) {
	if pat.NumTaxa() < 4 {
		return nil, fmt.Errorf("likelihood: %d taxa, need >= 4", pat.NumTaxa())
	}
	if len(spans) != set.NumPartitions() {
		return nil, fmt.Errorf("likelihood: %d partition spans for %d model instances",
			len(spans), set.NumPartitions())
	}
	e := &Engine{
		pat:       pat,
		nPatterns: pat.NumPatterns(),
		isCAT:     set.IsCAT(),
		nCat:      set.ClvCats(),
		kern:      activeKernelTable(),
	}
	lo := 0
	for i, r := range spans {
		if r.Lo != lo || r.Hi < r.Lo {
			return nil, fmt.Errorf("likelihood: partition %q spans [%d, %d), want start %d (partition-major tiling)",
				r.Name, r.Lo, r.Hi, lo)
		}
		lo = r.Hi
		rc := set.Rates[i]
		if rc.IsCAT() && len(rc.PatternCategory) != r.Len() {
			return nil, fmt.Errorf("likelihood: CAT assignment covers %d patterns, want %d",
				len(rc.PatternCategory), r.Len())
		}
		e.parts = append(e.parts, partState{
			name: r.Name, lo: r.Lo, hi: r.Hi,
			fOff: e.tileFloats, sOff: e.tileScale,
			model: set.Models[i], rates: rc,
		})
		e.tileFloats += padTo(r.Len()*e.nCat*4, 8)
		e.tileScale += padTo(r.Len(), 16)
	}
	if lo != e.nPatterns {
		return nil, fmt.Errorf("likelihood: partitions cover %d patterns, set has %d", lo, e.nPatterns)
	}
	if cfg.Pool != nil {
		e.pool = cfg.Pool
	} else {
		e.pool = threads.NewPool(1, e.nPatterns)
	}
	e.siteBuf = make([]float64, e.pool.Workers()*siteStride)
	// Snap worker stripe boundaries — relative to the starts of the
	// segments laid out above (NOT pat.PartStarts(): New() spans a
	// partitioned Patterns with ONE segment, and only segment starts
	// are line-aligned in the tile layout) — so no two workers write
	// the same 64-byte cache line of any tile segment. The binding
	// constraint is the scale counters (16 int32 per line); 16 patterns
	// is also a multiple of every CLV line quantum, and the padded
	// per-segment strides keep segment starts line-aligned, so the
	// quantum covers both arenas in every segment.
	starts := make([]int, len(e.parts))
	for i := range e.parts {
		starts[i] = e.parts[i].lo
	}
	e.pool.AlignRangesAt(stripeQuantum, starts)
	e.pool.EnsureWide(len(e.parts))
	e.fillTravFn = e.fillTravMatrices
	e.fillWireFn = e.fillWireIdxMatrices
	e.weights = append([]int(nil), pat.Weights...)
	e.buildTipVectors()
	e.ensureP()
	return e, nil
}

func (e *Engine) buildTipVectors() {
	nTaxa := e.pat.NumTaxa()
	e.tipFlat = make([]float64, nTaxa*e.nPatterns*4)
	e.tipCodeMask = make([]uint16, nTaxa)
	for taxon := 0; taxon < nTaxa; taxon++ {
		v := e.tipFlat[taxon*e.nPatterns*4 : (taxon+1)*e.nPatterns*4]
		for k := 0; k < e.nPatterns; k++ {
			s := e.pat.Data[taxon][k]
			e.tipCodeMask[taxon] |= 1 << uint(s)
			for st := 0; st < 4; st++ {
				if s&(1<<uint(st)) != 0 {
					v[k*4+st] = 1
				}
			}
		}
	}
}

// tipVecOf returns taxon's flat tip CLV ([pattern*4 + state]).
func (e *Engine) tipVecOf(taxon int) []float64 {
	return e.tipFlat[taxon*e.nPatterns*4 : (taxon+1)*e.nPatterns*4]
}

// Pool returns the engine's execution substrate.
func (e *Engine) Pool() Dispatcher { return e.pool }

// ThreadPool returns the engine's substrate as an in-process
// *threads.Pool when it is one (the common case), or a lazily created
// serial pool over the full pattern axis otherwise. Engines that need
// a plain thread crew over the whole axis — the parsimony engine's
// Fitch kernels are not distributed — use this instead of Pool.
func (e *Engine) ThreadPool() *threads.Pool {
	if p, ok := e.pool.(*threads.Pool); ok {
		return p
	}
	if e.serialPool == nil {
		e.serialPool = threads.NewPool(1, e.nPatterns)
	}
	return e.serialPool
}

// Model returns partition 0's substitution model — the engine's only
// model for single-partition data.
func (e *Engine) Model() *gtr.Model { return e.parts[0].model }

// Rates returns partition 0's rate treatment.
func (e *Engine) Rates() *gtr.RateCategories { return e.parts[0].rates }

// NumPartitions returns the number of alignment partitions.
func (e *Engine) NumPartitions() int { return len(e.parts) }

// PartitionModel returns partition i's substitution model.
func (e *Engine) PartitionModel(i int) *gtr.Model { return e.parts[i].model }

// PartitionRates returns partition i's rate treatment.
func (e *Engine) PartitionRates(i int) *gtr.RateCategories { return e.parts[i].rates }

// PartitionRange returns partition i's span on the pattern axis.
func (e *Engine) PartitionRange(i int) msa.PartRange {
	p := &e.parts[i]
	return msa.PartRange{Name: p.name, Lo: p.lo, Hi: p.hi}
}

// Patterns returns the engine's pattern set.
func (e *Engine) Patterns() *msa.Patterns { return e.pat }

// Tree returns the currently attached tree (nil before AttachTree).
func (e *Engine) Tree() *tree.Tree { return e.tree }

// Counts returns the number of newview and evaluate kernel invocations
// since construction — the work measure the performance model is
// calibrated against.
func (e *Engine) Counts() (newviews, evals int64) {
	return e.newviewCount, e.evalCount
}

// MemoryBytes returns the engine's current likelihood-buffer footprint:
// the CLV arena, its scaling counters, the tip vectors and the makenewz
// sumtable arena (one extra tile once branch-length optimization has
// run). Section 7
// of the paper predicts that growing pattern counts will force one rank
// to own the memory of many cores ("perhaps even the entire node");
// this accessor quantifies the per-rank footprint driving that
// prediction. Because the arena is one flat allocation, the figure is
// exact, not a sum over stray slices.
func (e *Engine) MemoryBytes() int64 {
	return int64(len(e.arena))*8 + int64(len(e.scaleArena))*4 +
		int64(len(e.tipFlat))*8 + int64(len(e.sumtable))*8
}

// EstimateMemoryBytes predicts the fully populated CLV-arena footprint
// of a single-partition engine over an alignment with the given
// dimensions; see EstimateMemoryBytesPartitioned for the general form.
// GTRCAT uses nCat = 1 per pattern; GTRGAMMA nCat = 4 — the 4x memory
// ratio is why RAxML (and this reproduction) default large analyses to
// CAT.
func EstimateMemoryBytes(taxa, patterns, nCat int) int64 {
	return EstimateMemoryBytesPartitioned(taxa, []int{patterns}, nCat)
}

// EstimateMemoryBytesPartitioned predicts the fully populated CLV-arena
// footprint of an engine over a partitioned alignment, exactly: only
// the taxa−2 internal nodes of an unrooted tree carry directed CLVs
// (3 tiles each; tips use the shared flat tip vectors), every tile
// holds one segment per partition of 4·nCat float64 per pattern plus an
// int32 scaling counter per pattern (every segment stride padded to
// whole 64-byte cache lines), and each taxon owns a flat 4-wide tip
// vector over the concatenated pattern axis.
func EstimateMemoryBytesPartitioned(taxa int, partPatterns []int, nCat int) int64 {
	if taxa < 2 || nCat < 1 || len(partPatterns) == 0 {
		return 0
	}
	patterns := 0
	perTile, perScale := int64(0), int64(0)
	for _, np := range partPatterns {
		if np < 1 {
			return 0
		}
		patterns += np
		perTile += int64(padTo(np*nCat*4, 8)) * 8
		perScale += int64(padTo(np, 16)) * 4
	}
	tiles := int64(taxa-2) * 3
	tips := int64(taxa) * int64(patterns) * 4 * 8
	return tiles*(perTile+perScale) + tips
}

// SetWeights installs a pattern weight vector (a bootstrap replicate).
// Pass nil to restore the original alignment weights. All cached CLVs
// are invalidated because zero-weight patterns are skipped in kernels.
func (e *Engine) SetWeights(w []int) {
	if w == nil {
		e.weights = append(e.weights[:0], e.pat.Weights...)
	} else {
		if len(w) != e.nPatterns {
			panic(fmt.Sprintf("likelihood: weight vector has %d entries, want %d", len(w), e.nPatterns))
		}
		e.weights = append(e.weights[:0], w...)
	}
	e.InvalidateAll()
}

// Weights returns the active weight vector (read-only).
func (e *Engine) Weights() []int { return e.weights }

// AttachTree binds the engine to a tree and invalidates all CLVs.
// The tree's taxon set must match the pattern set's rows. Every
// tile→edge binding is released back to the free list, so successive
// attachments (bootstrap replicates, restarts) reuse the arena instead
// of growing it.
func (e *Engine) AttachTree(t *tree.Tree) error {
	if t.NumTaxa() != e.pat.NumTaxa() {
		return fmt.Errorf("likelihood: tree has %d taxa, patterns have %d", t.NumTaxa(), e.pat.NumTaxa())
	}
	e.tree = t
	e.ensureArena()
	e.releaseTiles()
	e.InvalidateAll()
	e.topoEpoch++
	return nil
}

// ensureArena grows the per-directed-edge bookkeeping (tile bindings
// and validity flags) to the tree's node-arena size; worker-mode
// engines size the same bookkeeping from the wire via
// EnsureNodeCapacity (remote.go), which holds the single grow path.
func (e *Engine) ensureArena() {
	e.EnsureNodeCapacity(e.tree.MaxNodeID())
}

// releaseTiles unbinds every directed edge from its tile and returns
// all tiles to the free list. The arena itself is retained.
func (e *Engine) releaseTiles() {
	for i := range e.tileOf {
		e.tileOf[i] = noTile
	}
	e.freeTiles = e.freeTiles[:0]
	for t := e.nTiles - 1; t >= 0; t-- {
		e.freeTiles = append(e.freeTiles, int32(t))
	}
}

// tileFor returns the arena tile bound to the directed edge
// (node, slot), binding one lazily on first use: free-listed tiles are
// reused before the arena grows by one tile.
func (e *Engine) tileFor(node, slot int) int32 {
	idx := node*3 + slot
	t := e.tileOf[idx]
	if t != noTile {
		return t
	}
	if n := len(e.freeTiles); n > 0 {
		t = e.freeTiles[n-1]
		e.freeTiles = e.freeTiles[:n-1]
	} else {
		t = int32(e.nTiles)
		e.nTiles++
		e.arena = append(e.arena, make([]float64, e.tileFloats)...)
		e.scaleArena = append(e.scaleArena, make([]int32, e.tileScale)...)
	}
	e.tileOf[idx] = t
	return t
}

// clvOffset returns the float64 offset of directed CLV (node, slot) in
// the arena, binding a tile on first use.
func (e *Engine) clvOffset(node, slot int) int {
	return int(e.tileFor(node, slot)) * e.tileFloats
}

// scaleOffset returns the int32 offset of the scaling counters of the
// directed CLV (node, slot). Must be called after the tile is bound.
func (e *Engine) scaleOffset(node, slot int) int {
	return int(e.tileOf[node*3+slot]) * e.tileScale
}

// padTo rounds n up to the next multiple of q — tile and segment
// strides are padded to whole 64-byte cache lines so segments never
// share a line.
func padTo(n, q int) int {
	return (n + q - 1) / q * q
}

// InvalidateAll marks every cached CLV stale (topology or model
// changed) and advances the model epoch: every model-state mutation in
// the engine ends in an InvalidateAll, so distributed dispatchers use
// the epoch as the "ship a model-sync block" trigger.
func (e *Engine) InvalidateAll() {
	for i := range e.valid {
		e.valid[i] = false
	}
	e.modelEpoch++
}

// InvalidateEdge marks stale exactly the directed CLVs whose view
// contains edge (u, v) — every direction except the one looking toward
// the edge. Called after changing the branch length of (u, v).
func (e *Engine) InvalidateEdge(u, v int) {
	// clv(x, i) is the view of the component containing x when edge
	// (x, nb[i]) is cut. That view excludes the changed edge exactly
	// when nb[i] is x's first hop toward (u, v) — the changed edge then
	// falls on the far side of the cut. So for every node x, the one
	// view pointing toward the edge stays valid and all others go stale.
	e.invalidateSide(u, v)
	e.invalidateSide(v, u)
}

// InvalidateNode marks stale node n's own three views and every view
// that looks across n — the exact invalidation of a topology edit at n
// (a junction whose neighbor slots were reassigned). Views looking away
// from n keep their CLVs.
func (e *Engine) InvalidateNode(n int) {
	e.valid[n*3], e.valid[n*3+1], e.valid[n*3+2] = false, false, false
	for _, nb := range e.tree.Nodes[n].Neighbors {
		if nb >= 0 {
			e.invalidateSide(nb, n)
		}
	}
}

// invalidateSide walks the component on `from`'s side of edge
// (from, acrossTo) and marks stale every view that contains that edge.
// A view is only ever valid when the views it was computed from are
// (queueTraversal marks children first; every invalidation drops a
// view together with all views built on it), so the walk stops behind
// a view that is already stale: everything beyond it is stale too. The
// walk stack is engine-held, so invalidation allocates nothing.
func (e *Engine) invalidateSide(from, acrossTo int) {
	// Stack entries are (node, parent): parent is node's first hop
	// toward the changed edge.
	e.invStack = append(e.invStack[:0], [2]int{from, acrossTo})
	for len(e.invStack) > 0 {
		cur := e.invStack[len(e.invStack)-1]
		e.invStack = e.invStack[:len(e.invStack)-1]
		node, parent := cur[0], cur[1]
		for slot, nb := range e.tree.Nodes[node].Neighbors {
			// The view cutting the edge to `parent` looks away from the
			// changed edge and stays valid; every other view from this
			// node contains it.
			if nb < 0 || nb == parent {
				continue
			}
			idx := node*3 + slot
			if !e.valid[idx] {
				continue
			}
			e.valid[idx] = false
			e.invStack = append(e.invStack, [2]int{nb, node})
		}
	}
}

// DanglingPrune prunes the subtree at root across edge (root, attach)
// like tree.DanglingPrune and drops exactly the views the edit changed:
// attach's (its slots are reassigned), the subtree's views looking
// toward attach, and the main tree's views containing the rejoined edge
// (OrigA, OrigB). Everything else — in particular the subtree's view
// from root and every view looking toward the pruning point — stays
// valid for the insertion scan.
func (e *Engine) DanglingPrune(root, attach int) (*tree.PrunedSubtree, error) {
	p, err := e.tree.DanglingPrune(root, attach)
	if err != nil {
		// A prune that fails after its first disconnect reconnects root
		// to attach, possibly into another slot.
		e.InvalidateNode(attach)
		return nil, err
	}
	e.InvalidateNode(attach)
	e.InvalidateEdge(p.OrigA, p.OrigB)
	return p, nil
}

// Plug inserts the dangling subtree into edge ed like tree.Plug and
// drops the views across the new junction. Connect fills first free
// slots, so ed's endpoints and the subtree root keep their slot
// indices while attach's slots are reassigned: its three views go too.
func (e *Engine) Plug(p *tree.PrunedSubtree, ed tree.Edge) error {
	if err := e.tree.Plug(p, ed); err != nil {
		return err
	}
	e.InvalidateNode(p.Attach)
	return nil
}

// UnplugKeepDangling removes the junction from edge ed like
// tree.UnplugKeepDangling and drops the views across attach and across
// the restored edge, whose length (the sum of the two halves) can
// differ from its length before the plug.
func (e *Engine) UnplugKeepDangling(p *tree.PrunedSubtree, ed tree.Edge) {
	e.tree.UnplugKeepDangling(p, ed)
	e.InvalidateNode(p.Attach)
	e.InvalidateEdge(ed.A, ed.B)
}

// PlugBack restores the dangling subtree to its original position like
// tree.PlugBack and drops the views across attach.
func (e *Engine) PlugBack(p *tree.PrunedSubtree) {
	e.tree.PlugBack(p)
	e.InvalidateNode(p.Attach)
}

// ensureP recomputes the per-partition matrix-scratch offsets (pOff:
// the prefix sums of the per-partition category counts, which CAT
// re-clustering can change) and sizes the per-category transition-
// matrix scratch buffers to the new total.
func (e *Engine) ensureP() {
	total := 0
	for i := range e.parts {
		e.parts[i].pOff = total
		total += e.parts[i].rates.NumCats()
	}
	e.totalCats = total
	if cap(e.pEval) < total {
		e.pHalf = make([][16]float64, total)
		e.pPend = make([][16]float64, total)
		e.pEval = make([][16]float64, total)
		e.pD1 = make([][16]float64, total)
		e.pD2 = make([][16]float64, total)
		return
	}
	e.pHalf = e.pHalf[:total]
	e.pPend = e.pPend[:total]
	e.pEval = e.pEval[:total]
	e.pD1 = e.pD1[:total]
	e.pD2 = e.pD2[:total]
}

// fillP computes transition matrices for every partition and rate
// category at branch length t into the given scratch buffer (pHalf,
// pPend or pEval), at the partitions' pOff offsets. Branch lengths are
// linked across partitions; the matrices still differ because every
// partition has its own model and category rates.
func (e *Engine) fillP(t float64, dst [][16]float64) {
	for i := range e.parts {
		ps := &e.parts[i]
		for c := 0; c < ps.rates.NumCats(); c++ {
			ps.model.P(t, ps.rates.Rates[c], &dst[ps.pOff+c])
		}
	}
}

// pendantKey identifies the contents of pPend: the pendant length bits
// and the model epoch and category total they were filled under.
type pendantKey struct {
	bits, epoch uint64
	cats        int
	ok          bool
}

// fillPendant fills pPend with the pendant-branch matrices at length t
// unless it already holds them. Every model change moves the model
// epoch (InvalidateAll on a master, ApplyWireModel on a worker rank),
// so a matching key means bit-identical matrices.
func (e *Engine) fillPendant(t float64) {
	k := pendantKey{bits: math.Float64bits(t), epoch: e.modelEpoch, cats: e.totalCats, ok: true}
	if e.pendKey == k {
		return
	}
	e.fillP(t, e.pPend)
	e.pendKey = k
}

// chunkOf intersects a worker's pattern range with partition pi's span;
// ok is false when they are disjoint. Kernels iterate partitions with
// this to process one homogeneous (single-model) chunk at a time.
func (e *Engine) chunkOf(pi int, r threads.Range) (ps *partState, lo, hi int, ok bool) {
	ps = &e.parts[pi]
	lo, hi = r.Lo, r.Hi
	if lo < ps.lo {
		lo = ps.lo
	}
	if hi > ps.hi {
		hi = ps.hi
	}
	return ps, lo, hi, lo < hi
}

// LogLikelihood computes the log-likelihood of the attached tree,
// refreshing any stale CLVs. The virtual root is the edge incident to
// taxon 0 — the same likelihood is obtained at any edge (a property the
// tests verify).
func (e *Engine) LogLikelihood() float64 {
	if e.tree == nil {
		panic("likelihood: LogLikelihood before AttachTree")
	}
	a := 0
	b := e.tree.Nodes[0].Neighbors[0]
	return e.EvaluateEdge(a, b)
}

// EvaluateEdge computes the log-likelihood across edge (a, b): it
// builds one traversal descriptor covering every stale CLV on both
// sides, then posts a single JobEvaluate that walks the descriptor and
// reduces the log-likelihood — exactly one pool dispatch (one barrier
// crossing) regardless of how much of the tree went stale and of how
// many partitions the alignment has.
func (e *Engine) EvaluateEdge(a, b int) float64 {
	e.ensureArena()
	slotA := e.slotOf(a, b)
	slotB := e.slotOf(b, a)
	e.beginTraversal()
	e.queueTraversal(a, slotA)
	e.queueTraversal(b, slotB)
	e.prepareTraversal()
	t := e.tree.EdgeLength(a, b)
	e.ensureP()
	e.fillP(t, e.pEval)
	e.setEdgeJob(a, slotA, b, slotB, t)
	e.evalCount++
	e.dispatch(threads.JobEvaluate)
	return e.pool.SumSlots(0)
}

// setEdgeJob publishes the two endpoint views of an edge job (evaluate,
// makenewz, site-LL) in both resolved (jobVA/jobVB) and wire form.
func (e *Engine) setEdgeJob(a, slotA, b, slotB int, t float64) {
	e.jobVA = e.viewOf(a, slotA)
	e.jobVB = e.viewOf(b, slotB)
	e.jobWire[0] = e.wireViewOf(a, slotA)
	e.jobWire[1] = e.wireViewOf(b, slotB)
	e.jobNViews = 2
	e.jobT, e.jobT2 = t, 0
}

// PartitionLogLikelihoods returns the per-partition log-likelihood
// components of the attached tree (their sum is LogLikelihood). The
// evaluate kernel writes one partial per (worker, partition) into the
// pool's wide reduction slots, so the whole call is ONE JobEvaluate
// dispatch — no follow-up per-pattern site-likelihood pass.
func (e *Engine) PartitionLogLikelihoods(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(e.parts))
	}
	if len(dst) != len(e.parts) {
		panic(fmt.Sprintf("likelihood: destination has %d entries, want %d partitions", len(dst), len(e.parts)))
	}
	// Every JobEvaluate populates the wide slots; reuse the standard
	// evaluation path rather than restating it.
	e.LogLikelihood()
	for i := range e.parts {
		dst[i] = e.pool.SumWide(i)
	}
	return dst
}

// slotOf returns the neighbor slot of `of` pointing at `at`.
func (e *Engine) slotOf(of, at int) int {
	for i, v := range e.tree.Nodes[of].Neighbors {
		if v == at {
			return i
		}
	}
	panic(fmt.Sprintf("likelihood: nodes %d and %d not adjacent", of, at))
}

// DispatchCount returns the number of jobs the engine's pool has
// posted so far (barrier crossings). Exposed so callers can account
// for synchronization overhead per search stage.
func (e *Engine) DispatchCount() int64 { return e.pool.Dispatches() }
