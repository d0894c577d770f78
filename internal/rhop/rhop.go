// Package rhop implements the Region-based Hierarchical Operation
// Partitioning computation partitioner (Chu, Fan & Mahlke, PLDI'03), in the
// enhanced form this paper's §3.4 uses: memory operations may be locked to
// the home cluster of the data object they access, and the partitioner then
// distributes all remaining operations around those locked anchors using
// schedule-length estimates.
//
// Structure per region (an innermost loop body or a singleton block):
//
//  1. build an operation graph whose edge weights derive from dependence
//     slack (low slack = critical = heavy edge) scaled by profile
//     frequency, with locked operations and live-in values as fixed
//     anchors;
//  2. obtain an initial assignment from the multilevel min-cut partitioner
//     (internal/partition), which performs the coarsen/uncoarsen phases;
//  3. refine with estimate-driven local moves: an operation migrates to
//     another cluster when the region's estimated profile-weighted
//     schedule length strictly improves. The estimate combines the
//     resource bound, the intercluster-bus bound, and the critical path
//     with move latencies — the same ingredients as RHOP's schedule
//     estimator.
package rhop

import (
	"fmt"
	"sort"

	"mcpart/internal/cfg"
	"mcpart/internal/defaults"
	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/memo"
	"mcpart/internal/obs"
	"mcpart/internal/partition"
	"mcpart/internal/sched"
)

// Locks maps op IDs (within one function) to the cluster the op must run
// on. Memory operations get locked to their object's home cluster by the
// data-partitioning schemes; an empty map reproduces unified-memory RHOP.
type Locks map[int]int

// Options tunes the partitioner.
type Options struct {
	// RefinePasses bounds estimate-driven refinement sweeps per region
	// (default 4).
	RefinePasses int
	// BalanceTol is the initial partition's op-count imbalance tolerance
	// (default 0.4; refinement rebalances by estimate afterwards).
	BalanceTol float64
	// UniformEdges disables slack weighting (ablation: every dependence
	// edge gets the same base weight).
	UniformEdges bool
	// PairRefine adds a group-refinement phase that moves heavy-edge op
	// pairs together, as RHOP's multilevel uncoarsening does at its
	// coarser levels; single-op moves sometimes cannot escape the local
	// minima pair moves can.
	PairRefine bool
	// LegacyPartition routes the underlying graph bisection through the
	// legacy partitioner path instead of the CSR + gain-bucket FM fast
	// path (ablation). The two paths can pick different equal-quality
	// partitions, so this is part of CacheKey.
	LegacyPartition bool
	// Workers bounds the fast partitioner's multi-start fan-out; 0 means
	// runtime.GOMAXPROCS(0). Value-neutral (results are identical for
	// every worker count), so — like noIncremental — it is excluded from
	// CacheKey.
	Workers int
	// Obs, when non-nil, receives the refinement metrics (rhop_regions,
	// rhop_moves_accepted, rhop_cost_evals) and is threaded into the
	// graph partitioner. Value-neutral and excluded from CacheKey; the
	// refinement loops tally into scratch ints and flush once per
	// PartitionFunc call, so nil costs nothing on the hot path.
	Obs *obs.Observer
	// Memo, when non-nil, memoizes every region graph's min-cut by its
	// content (partition.KWayMemo), so identical region graphs — across
	// move latencies, schemes, lock signatures and sweep masks — share one
	// partition.KWay run. A hit returns exactly what the run would have,
	// so the cache is value-neutral and excluded from CacheKey; nil runs
	// every min-cut.
	Memo *memo.Cache

	// noIncremental disables the incremental per-block estimate cache in
	// the refinement loops and recomputes every region estimate from
	// scratch. The cache is exact, so this reference path is reachable
	// only from this package's tests (the equivalence oracle) and is
	// excluded from CacheKey.
	noIncremental bool
}

func (o Options) passes() int  { return defaults.Int(o.RefinePasses, 4) }
func (o Options) tol() float64 { return defaults.Float(o.BalanceTol, 0.4) }

// CacheKey returns a canonical encoding of every option that can change a
// partitioning outcome, with defaults resolved (so the zero Options and an
// explicit {RefinePasses: 4, BalanceTol: 0.4} share memoized results).
// noIncremental, Workers, Obs and Memo are excluded: all are value-neutral
// by construction.
func (o Options) CacheKey() string {
	return memo.NewKey("rhopopts").
		Int(int64(o.passes())).
		Float(o.tol()).
		Bool(o.UniformEdges).
		Bool(o.PairRefine).
		Bool(o.LegacyPartition).
		String()
}

// scratch bundles the reusable working memory one PartitionFunc call (and
// therefore one worker goroutine) owns: the list scheduler's node tables,
// the value-home buffer, and the schedule estimator's dense tables. It is
// created per call — never shared, never global — so concurrent
// PartitionFunc calls stay race-free. A FuncPartitioner owns one scratch
// for its whole lifetime instead.
type scratch struct {
	sched *sched.Scratch
	home  sched.HomeScratch
	// observability tallies, accumulated by the refinement loops and
	// flushed once per PartitionFunc call when Options.Obs is set.
	tRegions, tMoves, tEvals  int64
	tKWay, tKWayHits, tRefine int64
	// homeInc is the refinement loops' incrementally-maintained home
	// table. It is separate from home because realRegionCost and the
	// from-scratch estimator clobber home, while a regionEval needs its
	// table to stay coherent across an entire refinement loop.
	homeInc sched.HomeScratch
	est     estScratch
	// dirtyEval switches the refinement loops' regionEval to dirty-block
	// invalidation (see regionEval): exact like the signature cache, but
	// without the per-candidate O(region ops) signature build. Only
	// FuncPartitioner sets it; one-shot PartitionFunc keeps the signature
	// path so the pre-existing engine's wall-clock profile is untouched.
	dirtyEval bool
	// curPre is the regionPre of the region currently being partitioned
	// (set by partitionRegion); the dirty-mode regionEval reads its
	// precomputed live-in and reg→block tables.
	curPre *regionPre
	// blockCost caches real-scheduler block lengths across candidates and
	// lock signatures (sweep mode only). ScheduleBlockCtx's length depends
	// only on the block, the assignments of its ops, and the homes of its
	// live-in registers, so the key covers every input exactly.
	blockCost map[string]int
	keyBuf    []byte
	// graph-build buffers, reused across partitionRegion calls.
	edges     []regionEdge
	anchors   []regionAnchor
	anchorIdx map[int]int
	deg       []int
	// targeted home-computation buffers (sweep mode): homeT is a full
	// NRegs-wide table with only the current region's live-in entries
	// valid; cnt is the per-register cluster tally.
	homeT []int
	cnt   []int64
}

// regionEdge and regionAnchor are partitionRegion's graph-build records,
// hoisted to package scope so scratch can reuse their backing arrays.
type regionEdge struct {
	u, v int
	w    int64
}

type regionAnchor struct {
	home int
}

// PartitionFunc assigns every op of f to a cluster. prof supplies block
// frequencies (nil-safe: missing blocks count as frequency 1 so cold code
// still partitions sensibly).
func PartitionFunc(f *ir.Func, prof *interp.Profile, mcfg *machine.Config, locks Locks, opts Options) ([]int, error) {
	k := mcfg.NumClusters()
	asg := make([]int, f.NOps)
	for i := range asg {
		asg[i] = -1
	}
	for id, c := range locks {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("rhop: %s op %d locked to cluster %d of %d", f.Name, id, c, k)
		}
	}
	du := cfg.ComputeDefUse(f)
	ops := f.OpsByID()
	lc := sched.NewLoopCtx(f)
	regions := cfg.FormRegions(f)
	sc := &scratch{sched: sched.NewScratch()}
	// Partition the hottest regions first: inner loops choose their layout
	// freely and colder surrounding code anchors to those decisions, not
	// the other way around.
	order := make([]*cfg.Region, len(regions))
	copy(order, regions)
	sort.SliceStable(order, func(i, j int) bool {
		return regionHeat(prof, order[i]) > regionHeat(prof, order[j])
	})
	for _, region := range order {
		if err := partitionRegion(sc, newRegionPre(f, region, du, ops, mcfg), f, du, ops, lc, prof, mcfg, locks, opts, asg); err != nil {
			return nil, err
		}
	}
	for id, c := range asg {
		if c < 0 {
			return nil, fmt.Errorf("rhop: %s op %d left unassigned", f.Name, id)
		}
	}
	if opts.Obs != nil {
		opts.Obs.Counter("rhop_functions").Add(1)
		opts.Obs.Counter("rhop_regions").Add(sc.tRegions)
		opts.Obs.Counter("rhop_moves_accepted").Add(sc.tMoves)
		opts.Obs.Counter("rhop_cost_evals").Add(sc.tEvals)
		opts.Obs.Counter("rhop_kway_runs").Add(sc.tKWay)
		opts.Obs.Counter("rhop_kway_memo_hits").Add(sc.tKWayHits)
		opts.Obs.Counter("rhop_refine_runs").Add(sc.tRefine)
	}
	return asg, nil
}

// PartitionModule partitions every function of m. locks may be nil or miss
// functions (treated as unlocked).
func PartitionModule(m *ir.Module, prof *interp.Profile, mcfg *machine.Config, locks map[*ir.Func]Locks, opts Options) (map[*ir.Func][]int, error) {
	out := make(map[*ir.Func][]int, len(m.Funcs))
	for _, f := range m.Funcs {
		var l Locks
		if locks != nil {
			l = locks[f]
		}
		asg, err := PartitionFunc(f, prof, mcfg, l, opts)
		if err != nil {
			return nil, err
		}
		out[f] = asg
	}
	return out, nil
}

// regionHeat is the hottest block frequency within a region.
func regionHeat(prof *interp.Profile, r *cfg.Region) int64 {
	var h int64
	for _, b := range r.Blocks {
		if fq := blockFreq(prof, b); fq > h {
			h = fq
		}
	}
	return h
}

// blockFreq returns the profile frequency of b, treating unexecuted blocks
// as frequency 1 so static code still partitions deterministically.
func blockFreq(prof *interp.Profile, b *ir.Block) int64 {
	if prof == nil {
		return 1
	}
	if fq := prof.Freq(b); fq > 0 {
		return fq
	}
	return 1
}

// regionPre holds the per-region inputs of partitionRegion that depend only
// on the function's structure — the op list, node index, and dependence
// slack — not on locks or the evolving assignment. One-shot PartitionFunc
// builds one per region and discards it (the same computation the code did
// inline before the split); a FuncPartitioner builds them once and reuses
// them across every lock signature of a sweep.
type regionPre struct {
	region    *cfg.Region
	regionOps []*ir.Op
	inRegion  map[int]bool
	idx       map[int]int // op ID -> node
	slack     map[edgeKey]int64
	maxSlack  int64

	// Lazy tables for the dirty-block regionEval (sweep mode only).
	evalReady bool
	liveIn    [][]ir.VReg         // per region block: read-before-def regs
	regBlocks map[ir.VReg][]int32 // reg -> region blocks with reg in liveIn
	opBlock   []int32             // by op ID: region block index, -1 outside

	// Lazy real-cost memo (sweep mode only). realRegionCost's result is a
	// function of the assignments of the region's ops and the home
	// clusters of the blocks' live-in registers; a home cluster in turn
	// depends only on the assignments of the register's defining ops.
	// extHomeRefs lists the out-of-region definers of those live-ins, so
	// (asg over region ops, asg over extHomeRefs) keys the result exactly.
	homeReady   bool
	extHomeRefs []int
	// extUseRefs lists the out-of-region consumers of region definitions
	// not already in extHomeRefs: the use-side anchors of the min-cut
	// graph. Every out-of-region def feeding a region arg is in
	// extHomeRefs (it can only reach a read-before-def register), so the
	// two lists hold every outside assignment partitionRegion reads.
	extUseRefs []int
	// homeRegs/homeDefs drive the targeted home computation on regionCost
	// misses: the sorted union of the blocks' live-in registers, and per
	// register its defining ops with HomeClustersFreq's max(1, freq) block
	// weights. Scoring a candidate only needs homes for these registers, so
	// the scorer skips the full-function home pass.
	homeRegs   []ir.VReg
	homeDefs   [][]homeDef
	regionCost map[string]int64
	// refined memoizes refineRegion outcomes (the region layout it
	// converges to) under the same key space as regionCost, plus a leading
	// byte separating the pair-refined candidate from the plain one: the
	// refinement loop's decisions read exactly the inputs regionCost's key
	// covers.
	refined map[string][]int
}

// homeDef is one defining op of a live-in register, with the frequency
// weight HomeClustersFreq would give it.
type homeDef struct {
	id int32
	w  int64
}

func newRegionPre(f *ir.Func, region *cfg.Region, du *cfg.DefUse, ops []*ir.Op, mcfg *machine.Config) *regionPre {
	pre := &regionPre{region: region, inRegion: map[int]bool{}}
	for _, b := range region.Blocks {
		for _, op := range b.Ops {
			pre.inRegion[op.ID] = true
			pre.regionOps = append(pre.regionOps, op)
		}
	}
	if len(pre.regionOps) == 0 {
		return pre
	}
	pre.idx = make(map[int]int, len(pre.regionOps))
	for i, op := range pre.regionOps {
		pre.idx[op.ID] = i
	}
	pre.slack = computeSlack(region, du, ops, mcfg)
	pre.maxSlack = 1
	for _, s := range pre.slack {
		if s > pre.maxSlack {
			pre.maxSlack = s
		}
	}
	return pre
}

// ensureEvalTables builds the dirty-block regionEval's lookup tables on
// first use: per-block live-in registers, the reverse reg→blocks index, and
// the op→block map.
func (pre *regionPre) ensureEvalTables(f *ir.Func) {
	if pre.evalReady {
		return
	}
	pre.evalReady = true
	n := len(pre.region.Blocks)
	pre.liveIn = make([][]ir.VReg, n)
	pre.regBlocks = map[ir.VReg][]int32{}
	pre.opBlock = make([]int32, f.NOps)
	for i := range pre.opBlock {
		pre.opBlock[i] = -1
	}
	for i, b := range pre.region.Blocks {
		pre.liveIn[i] = blockLiveIn(b)
		for _, r := range pre.liveIn[i] {
			pre.regBlocks[r] = append(pre.regBlocks[r], int32(i))
		}
		for _, op := range b.Ops {
			pre.opBlock[op.ID] = int32(i)
		}
	}
}

// ensureHomeRefs collects, in sorted order, the IDs of ops outside the
// region that define any live-in register of the region's blocks — the only
// out-of-region assignments the real-cost scorer's home computation can
// observe — and then the remaining outside consumers of region definitions
// (extUseRefs), which the min-cut graph anchors from the use side.
func (pre *regionPre) ensureHomeRefs(f *ir.Func, du *cfg.DefUse, ops []*ir.Op, prof *interp.Profile) {
	if pre.homeReady {
		return
	}
	pre.homeReady = true
	pre.ensureEvalTables(f)
	pre.regionCost = map[string]int64{}
	pre.refined = map[string][]int{}
	seen := map[int]bool{}
	seenReg := map[ir.VReg]bool{}
	for _, regs := range pre.liveIn {
		for _, r := range regs {
			if seenReg[r] {
				continue
			}
			seenReg[r] = true
			pre.homeRegs = append(pre.homeRegs, r)
			for _, id := range du.DefsOfReg[r] {
				if !pre.inRegion[id] && !seen[id] {
					seen[id] = true
					pre.extHomeRefs = append(pre.extHomeRefs, id)
				}
			}
		}
	}
	for _, op := range pre.regionOps {
		if op.Dst == ir.NoReg {
			continue
		}
		for _, id := range du.UsesOf[op.ID] {
			if !pre.inRegion[id] && !seen[id] {
				seen[id] = true
				pre.extUseRefs = append(pre.extUseRefs, id)
			}
		}
	}
	sort.Ints(pre.extHomeRefs)
	sort.Ints(pre.extUseRefs)
	sort.Slice(pre.homeRegs, func(i, j int) bool { return pre.homeRegs[i] < pre.homeRegs[j] })
	pre.homeDefs = make([][]homeDef, len(pre.homeRegs))
	for i, r := range pre.homeRegs {
		for _, id := range du.DefsOfReg[r] {
			w := int64(1)
			if fq := blockFreq(prof, ops[id].Block); fq > 1 {
				w = fq
			}
			pre.homeDefs[i] = append(pre.homeDefs[i], homeDef{id: int32(id), w: w})
		}
	}
}

func partitionRegion(sc *scratch, pre *regionPre, f *ir.Func, du *cfg.DefUse, ops []*ir.Op,
	lc *sched.LoopCtx, prof *interp.Profile, mcfg *machine.Config, locks Locks, opts Options, asg []int) error {

	k := mcfg.NumClusters()
	region := pre.region
	regionOps := pre.regionOps
	inRegion := pre.inRegion
	if len(regionOps) == 0 {
		return nil
	}
	sc.tRegions++
	sc.curPre = pre

	// Graph nodes: region ops, then one anchor per live-in value with
	// a known home cluster.
	idx := pre.idx
	if sc.anchorIdx == nil {
		sc.anchorIdx = map[int]int{} // defining op ID outside region -> node
	} else {
		for k := range sc.anchorIdx {
			delete(sc.anchorIdx, k)
		}
	}
	anchorIdx := sc.anchorIdx
	anchors := sc.anchors[:0]

	slack := pre.slack
	maxSlack := pre.maxSlack

	edges := sc.edges[:0]
	addAnchor := func(key, home, node int, w int64) {
		ai, ok := anchorIdx[key]
		if !ok {
			ai = len(regionOps) + len(anchors)
			anchorIdx[key] = ai
			anchors = append(anchors, regionAnchor{home: home})
		}
		edges = append(edges, regionEdge{u: ai, v: node, w: w})
	}
	for _, op := range regionOps {
		u := idx[op.ID]
		freq := blockFreq(prof, op.Block)
		for argI := range op.Args {
			for _, defID := range du.DefsOf[op.ID][argI] {
				w := int64(1)
				if !opts.UniformEdges {
					w = maxSlack + 1 - slack[edgeKey{defID, op.ID}]
					if w < 1 {
						w = 1
					}
				}
				w *= scaleFreq(freq)
				if inRegion[defID] {
					edges = append(edges, regionEdge{u: idx[defID], v: u, w: w})
					continue
				}
				// Live-in from an already-partitioned def: anchor it.
				if home := asg[defID]; home >= 0 {
					addAnchor(defID, home, u, w)
				}
			}
		}
		// Live-out consumers already placed in other regions anchor
		// this op's definition from the use side.
		if op.Dst != ir.NoReg {
			for _, useID := range du.UsesOf[op.ID] {
				if inRegion[useID] {
					continue
				}
				if home := asg[useID]; home >= 0 {
					w := scaleFreq(blockFreq(prof, ops[useID].Block))
					addAnchor(^useID, home, u, w)
				}
			}
		}
	}

	sc.edges, sc.anchors = edges, anchors

	g := partition.NewGraph(len(regionOps)+len(anchors), 1)
	for i, op := range regionOps {
		g.W[i][0] = scaleFreq(blockFreq(prof, op.Block))
		if c, ok := locks[op.ID]; ok {
			g.Fixed[i] = c
		}
	}
	for i, a := range anchors {
		g.Fixed[len(regionOps)+i] = a.home
	}
	deg := sc.deg[:0]
	for range g.Fixed {
		deg = append(deg, 0)
	}
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	sc.deg = deg
	g.Reserve(deg)
	for _, e := range edges {
		g.Connect(e.u, e.v, e.w)
	}

	// The min-cut is memoized by graph content: the region graph's
	// weights come from opcode slack and profile frequency, never from the
	// move latency, so the same problem recurs across latencies, schemes
	// and sweep masks. part is shared with other hits and read-only here.
	part, hit, err := partition.KWayMemo(opts.Memo, g, k, partition.Options{
		Tol:     []float64{opts.tol()},
		Legacy:  opts.LegacyPartition,
		Workers: opts.Workers,
		Obs:     opts.Obs,
	})
	if err != nil {
		return err
	}
	if hit {
		sc.tKWayHits++
	} else {
		sc.tKWay++
	}

	// Candidate 1: the min-cut partition, refined by schedule estimates.
	apply := func(choice func(i int, op *ir.Op) int) {
		for i, op := range regionOps {
			if c, ok := locks[op.ID]; ok {
				asg[op.ID] = c
			} else {
				asg[op.ID] = choice(i, op)
			}
		}
	}
	var best map[int]int
	bestCost := int64(-1)
	consider := func() {
		if cost := realRegionCost(sc, f, region, lc, prof, mcfg, asg); bestCost < 0 || cost < bestCost {
			best = snapshotRegion(regionOps, asg)
			bestCost = cost
		}
	}
	runRefine := func(withPair bool) {
		sc.tRefine++
		refineRegion(sc, f, region, lc, prof, mcfg, locks, opts, asg)
		if withPair && opts.PairRefine {
			pairRefineRegion(sc, f, region, du, ops, lc, prof, mcfg, locks, opts, asg)
		}
	}
	// Sweep mode memoizes the refined layout a starting candidate
	// converges to: the refinement loop's move decisions depend only on
	// the region layout it starts from, the locks, and the home clusters
	// of the blocks' live-in registers (see regionPre.extHomeRefs).
	refine := func(withPair bool) {
		if !sc.dirtyEval || !pre.homeReady {
			runRefine(withPair)
			return
		}
		buf := sc.keyBuf[:0]
		if withPair {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		for _, op := range regionOps {
			buf = append(buf, byte(asg[op.ID]+1))
		}
		for _, id := range pre.extHomeRefs {
			buf = append(buf, byte(asg[id]+1))
		}
		sc.keyBuf = buf
		if lay, ok := pre.refined[string(buf)]; ok {
			for i, op := range regionOps {
				asg[op.ID] = lay[i]
			}
			return
		}
		key := string(buf)
		runRefine(withPair)
		lay := make([]int, len(regionOps))
		for i, op := range regionOps {
			lay[i] = asg[op.ID]
		}
		pre.refined[key] = lay
	}
	apply(func(i int, op *ir.Op) int { return part[i] })
	consider()
	refine(true)
	consider()

	// Candidates 2..k+1: everything (unlocked) on a single cluster, then
	// refined. This lets the partitioner collapse regions whose dependence
	// structure makes splitting a net loss at high move latencies — the
	// situation the paper's Figure 2 highlights — which purely local moves
	// cannot reach from a split starting point.
	for c := 0; c < k; c++ {
		feasible := true
		for _, op := range regionOps {
			if mcfg.Units(c, machine.KindOf(op.Opcode)) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		apply(func(int, *ir.Op) int { return c })
		consider() // the pure single-cluster layout, before refinement
		refine(false)
		consider()
	}
	for _, op := range regionOps {
		asg[op.ID] = best[op.ID]
	}
	return nil
}

// realRegionCost scores a candidate with the actual list scheduler (the
// estimate guides the inner refinement loop; the final choice between
// refined candidates uses real schedule lengths so estimate error cannot
// pick a partition the machine executes badly).
func realRegionCost(sc *scratch, f *ir.Func, region *cfg.Region, lc *sched.LoopCtx, prof *interp.Profile,
	mcfg *machine.Config, asg []int) int64 {

	// Sweep mode memoizes the whole score by its exact inputs (see
	// regionPre.extHomeRefs), and below that caches individual block
	// lengths, so candidates and lock signatures that agree on either
	// level share scheduler runs.
	pre := sc.curPre
	cached := sc.dirtyEval && pre != nil && pre.region == region && pre.homeReady
	var costKey string
	if cached {
		buf := sc.keyBuf[:0]
		for _, op := range pre.regionOps {
			buf = append(buf, byte(asg[op.ID]+1))
		}
		for _, id := range pre.extHomeRefs {
			buf = append(buf, byte(asg[id]+1))
		}
		sc.keyBuf = buf
		if v, ok := pre.regionCost[string(buf)]; ok {
			return v
		}
		costKey = string(buf)
		if sc.blockCost == nil {
			sc.blockCost = map[string]int{}
		}
	}
	var home []int
	if cached {
		// Only the blocks' live-in registers' homes are read below; fill
		// exactly those from the precomputed def lists (identical weights
		// and tie-breaks to HomeClustersFreq) and leave the rest stale.
		k := mcfg.NumClusters()
		if cap(sc.homeT) < f.NRegs {
			sc.homeT = make([]int, f.NRegs)
		}
		if cap(sc.cnt) < k {
			sc.cnt = make([]int64, k)
		}
		home = sc.homeT[:f.NRegs]
		cnt := sc.cnt[:k]
		for ui, r := range pre.homeRegs {
			for c := range cnt {
				cnt[c] = 0
			}
			for _, d := range pre.homeDefs[ui] {
				if c := asg[d.id]; c >= 0 {
					cnt[c] += d.w
				}
			}
			h := sched.EverywhereHome
			var best int64
			for c, v := range cnt {
				if v > best {
					best = v
					h = c
				}
			}
			home[r] = h
		}
	} else {
		home = sc.home.HomeClustersFreq(f, asg, mcfg.NumClusters(), func(b *ir.Block) int64 {
			return blockFreq(prof, b)
		})
	}
	var total int64
	for bi, b := range region.Blocks {
		var length int
		if cached {
			buf := append(sc.keyBuf[:0], byte(b.ID>>8), byte(b.ID))
			for _, op := range b.Ops {
				buf = append(buf, byte(asg[op.ID]+1))
			}
			for _, r := range pre.liveIn[bi] {
				buf = append(buf, byte(home[r]+2))
			}
			sc.keyBuf = buf
			if l, ok := sc.blockCost[string(buf)]; ok {
				length = l
			} else {
				res, _ := sc.sched.ScheduleBlockCtx(b, asg, home, lc, mcfg)
				length = res.Length
				sc.blockCost[string(buf)] = length
			}
		} else {
			res, _ := sc.sched.ScheduleBlockCtx(b, asg, home, lc, mcfg)
			length = res.Length
		}
		total += blockFreq(prof, b) * int64(length)
	}
	if cached {
		pre.regionCost[costKey] = total
	}
	return total
}

func snapshotRegion(regionOps []*ir.Op, asg []int) map[int]int {
	snap := make(map[int]int, len(regionOps))
	for _, op := range regionOps {
		snap[op.ID] = asg[op.ID]
	}
	return snap
}

// scaleFreq compresses profile frequencies so hot blocks dominate without
// overflowing edge weights.
func scaleFreq(freq int64) int64 {
	w := int64(1)
	for freq > 1 {
		freq >>= 1
		w++
	}
	return w
}

type edgeKey struct{ def, use int }

// computeSlack returns per dependence edge (def, use) within the region the
// scheduling slack of that edge: how much the use could be delayed without
// stretching its block's critical path. Cross-block edges get the maximum
// observed slack (they are fed through registers and rarely critical).
func computeSlack(region *cfg.Region, du *cfg.DefUse, ops []*ir.Op, mcfg *machine.Config) map[edgeKey]int64 {
	slack := map[edgeKey]int64{}
	var crossEdges []edgeKey
	var maxSlack int64
	for _, b := range region.Blocks {
		// ASAP within block.
		asap := map[int]int64{}
		var blockLen int64
		for _, op := range b.Ops {
			var start int64
			for argI := range op.Args {
				for _, defID := range du.DefsOf[op.ID][argI] {
					if ops[defID].Block == b {
						if t := asap[defID] + int64(machine.Latency(ops[defID].Opcode)); t > start {
							start = t
						}
					}
				}
			}
			asap[op.ID] = start
			if end := start + int64(machine.Latency(op.Opcode)); end > blockLen {
				blockLen = end
			}
		}
		// ALAP within block (walk ops backwards).
		alap := map[int]int64{}
		for i := len(b.Ops) - 1; i >= 0; i-- {
			op := b.Ops[i]
			latest := blockLen - int64(machine.Latency(op.Opcode))
			for _, useID := range du.UsesOf[op.ID] {
				if ops[useID].Block == b {
					if t := alap[useID] - int64(machine.Latency(op.Opcode)); t < latest {
						latest = t
					}
				}
			}
			alap[op.ID] = latest
		}
		for _, op := range b.Ops {
			for argI := range op.Args {
				for _, defID := range du.DefsOf[op.ID][argI] {
					key := edgeKey{defID, op.ID}
					if ops[defID].Block == b {
						s := alap[op.ID] - (asap[defID] + int64(machine.Latency(ops[defID].Opcode)))
						if s < 0 {
							s = 0
						}
						slack[key] = s
						if s > maxSlack {
							maxSlack = s
						}
					} else {
						crossEdges = append(crossEdges, key)
					}
				}
			}
		}
	}
	for _, key := range crossEdges {
		slack[key] = maxSlack
	}
	return slack
}

// regionEval evaluates candidate assignments during one refinement loop.
// In incremental mode (the default) it caches per-block schedule-length
// estimates keyed by a signature of exactly the inputs blockLen reads —
// the cluster assignment of the block's own ops and the home cluster of
// its read-before-def live-in registers — so a tentative move only
// re-estimates the blocks it actually touches, and it maintains the
// value-home table with O(numClusters) MoveDef deltas instead of a full
// O(ops) recomputation per candidate. The cache is exact: a signature
// covers every input of the estimate, and MoveDef reproduces the dominant-
// cluster rule bit for bit, so incremental and from-scratch evaluation
// return identical costs (pinned by TestIncrementalRefinementEquivalence).
//
// In full mode (Options.noIncremental) move is a plain assignment write
// and cost recomputes the whole region estimate, reproducing the
// pre-cache behavior verbatim.
//
// In dirty mode (scratch.dirtyEval, sweep-only) the signature build is
// replaced by explicit invalidation: move marks the moved op's own block
// dirty, and — when the move changes a value's home cluster — every block
// that reads the value live-in (via regionPre's reg→blocks index). A dirty
// block is re-estimated on the next cost call; clean blocks keep their
// cached length. The dirtied set is a superset of the blocks whose
// signature would have changed, so dirty and signature mode return
// identical costs; dirty mode just skips building the signature for the
// (many) clean blocks of every candidate evaluation.
type regionEval struct {
	full   bool
	sc     *scratch
	f      *ir.Func
	region *cfg.Region
	lc     *sched.LoopCtx
	prof   *interp.Profile
	mcfg   *machine.Config
	asg    []int
	k      int

	home   []int       // sc.homeInc's table, updated in place by MoveDef
	blocks []*ir.Block // region blocks
	freqs  []int64     // profile weight per block
	liveIn [][]ir.VReg // per block: registers read before any local def
	sig    [][]int32   // per block: signature of the cached estimate
	valid  []bool      // per block: sig/val populated
	val    []int64     // per block: cached blockLen
	buf    []int32     // signature build buffer

	// dirty-mode state: dirtyList holds the indices set in dirty, and
	// total carries the region cost forward so cost() only touches the
	// blocks invalidated since the last call instead of rescanning all of
	// them.
	dirtyMode bool
	dirty     []bool
	dirtyList []int32
	total     int64
	pre       *regionPre
}

func newRegionEval(sc *scratch, f *ir.Func, region *cfg.Region, lc *sched.LoopCtx,
	prof *interp.Profile, mcfg *machine.Config, opts Options, asg []int) *regionEval {

	re := &regionEval{
		full: opts.noIncremental,
		sc:   sc, f: f, region: region, lc: lc, prof: prof, mcfg: mcfg,
		asg: asg, k: mcfg.NumClusters(),
	}
	if re.full {
		return re
	}
	re.home = sc.homeInc.HomeClustersFreq(f, asg, re.k, func(b *ir.Block) int64 {
		return blockFreq(prof, b)
	})
	n := len(region.Blocks)
	re.blocks = region.Blocks
	re.freqs = make([]int64, n)
	re.val = make([]int64, n)
	if sc.dirtyEval && sc.curPre != nil && sc.curPre.region == region {
		re.dirtyMode = true
		re.pre = sc.curPre
		re.pre.ensureEvalTables(f)
		re.liveIn = re.pre.liveIn
		re.dirty = make([]bool, n)
		re.dirtyList = make([]int32, n)
		for i, b := range region.Blocks {
			re.freqs[i] = blockFreq(prof, b)
			re.dirty[i] = true
			re.dirtyList[i] = int32(i)
		}
		return re
	}
	re.liveIn = make([][]ir.VReg, n)
	re.sig = make([][]int32, n)
	re.valid = make([]bool, n)
	for i, b := range region.Blocks {
		re.freqs[i] = blockFreq(prof, b)
		re.liveIn[i] = blockLiveIn(b)
	}
	return re
}

// blockLiveIn returns the registers b reads before (re)defining them
// locally — exactly the registers whose home cluster blockLen consults —
// in deterministic first-read order.
func blockLiveIn(b *ir.Block) []ir.VReg {
	defined := map[ir.VReg]bool{}
	seen := map[ir.VReg]bool{}
	var out []ir.VReg
	for _, op := range b.Ops {
		for _, a := range op.Args {
			if a.IsReg() && !defined[a.Reg] && !seen[a.Reg] {
				seen[a.Reg] = true
				out = append(out, a.Reg)
			}
		}
		if op.Dst != ir.NoReg {
			defined[op.Dst] = true
		}
	}
	return out
}

// move reassigns op to cluster `to`, keeping the home table coherent.
func (re *regionEval) move(op *ir.Op, to int) {
	from := re.asg[op.ID]
	if from == to {
		return
	}
	re.asg[op.ID] = to
	if re.full {
		return
	}
	if re.dirtyMode {
		if bi := re.pre.opBlock[op.ID]; bi >= 0 {
			re.markDirty(bi)
		}
		if op.Dst != ir.NoReg {
			old := re.home[op.Dst]
			re.sc.homeInc.MoveDef(op.Dst, re.k, from, to, blockFreq(re.prof, op.Block))
			if re.home[op.Dst] != old {
				for _, bi := range re.pre.regBlocks[op.Dst] {
					re.markDirty(bi)
				}
			}
		}
		return
	}
	if op.Dst != ir.NoReg {
		re.sc.homeInc.MoveDef(op.Dst, re.k, from, to, blockFreq(re.prof, op.Block))
	}
}

// cost returns the region's estimated profile-weighted cycle count under
// the current assignment.
func (re *regionEval) cost() int64 {
	if re.full {
		return estimateRegionCostScratch(re.sc, re.f, re.region, re.lc, re.prof, re.mcfg, re.asg)
	}
	if re.dirtyMode {
		for _, i := range re.dirtyList {
			v := re.sc.est.blockLen(re.blocks[i], re.asg, re.home, re.lc, re.mcfg)
			re.total += re.freqs[i] * (v - re.val[i])
			re.val[i] = v
			re.dirty[i] = false
		}
		re.dirtyList = re.dirtyList[:0]
		return re.total
	}
	var total int64
	for i, b := range re.blocks {
		sig := re.buf[:0]
		for _, op := range b.Ops {
			sig = append(sig, int32(re.asg[op.ID]))
		}
		for _, r := range re.liveIn[i] {
			sig = append(sig, int32(re.home[r]))
		}
		re.buf = sig
		if !re.valid[i] || !sigEqual(re.sig[i], sig) {
			re.val[i] = re.sc.est.blockLen(b, re.asg, re.home, re.lc, re.mcfg)
			re.sig[i] = append(re.sig[i][:0], sig...)
			re.valid[i] = true
		}
		total += re.freqs[i] * re.val[i]
	}
	return total
}

func (re *regionEval) markDirty(bi int32) {
	if !re.dirty[bi] {
		re.dirty[bi] = true
		re.dirtyList = append(re.dirtyList, bi)
	}
}

func sigEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// refineRegion performs estimate-driven local moves: each pass visits the
// region's unlocked ops in deterministic order and migrates an op to the
// cluster minimizing the region's estimated cost, keeping strict
// improvements only. Candidate evaluation goes through a regionEval so
// only the blocks a tentative move touches are re-estimated.
func refineRegion(sc *scratch, f *ir.Func, region *cfg.Region, lc *sched.LoopCtx, prof *interp.Profile,
	mcfg *machine.Config, locks Locks, opts Options, asg []int) {

	k := mcfg.NumClusters()
	var regionOps []*ir.Op
	for _, b := range region.Blocks {
		for _, op := range b.Ops {
			if _, locked := locks[op.ID]; !locked {
				regionOps = append(regionOps, op)
			}
		}
	}
	sort.Slice(regionOps, func(i, j int) bool { return regionOps[i].ID < regionOps[j].ID })

	re := newRegionEval(sc, f, region, lc, prof, mcfg, opts, asg)
	cur := re.cost()
	for pass := 0; pass < opts.passes(); pass++ {
		improved := false
		for _, op := range regionOps {
			orig := asg[op.ID]
			bestC, bestCost := orig, cur
			for c := 0; c < k; c++ {
				if c == orig {
					continue
				}
				if mcfg.Units(c, machine.KindOf(op.Opcode)) == 0 {
					continue
				}
				re.move(op, c)
				sc.tEvals++
				if nc := re.cost(); nc < bestCost {
					bestC, bestCost = c, nc
				}
			}
			re.move(op, bestC)
			if bestC != orig {
				cur = bestCost
				improved = true
				sc.tMoves++
			}
		}
		if !improved {
			break
		}
	}
}

// pairRefineRegion moves pairs of ops joined by their heaviest dependence
// edge between clusters together, accepting strict estimate improvements.
// This emulates a coarser level of RHOP's uncoarsening hierarchy.
func pairRefineRegion(sc *scratch, f *ir.Func, region *cfg.Region, du *cfg.DefUse, ops []*ir.Op,
	lc *sched.LoopCtx, prof *interp.Profile, mcfg *machine.Config, locks Locks, opts Options, asg []int) {

	k := mcfg.NumClusters()
	inRegion := map[int]bool{}
	for _, b := range region.Blocks {
		for _, op := range b.Ops {
			inRegion[op.ID] = true
		}
	}
	// Heaviest-neighbor matching over unlocked region ops.
	type pair struct{ a, b *ir.Op }
	var pairs []pair
	matched := map[int]bool{}
	for _, b := range region.Blocks {
		for _, op := range b.Ops {
			if matched[op.ID] {
				continue
			}
			if _, locked := locks[op.ID]; locked {
				continue
			}
			for argI := range op.Args {
				for _, defID := range du.DefsOf[op.ID][argI] {
					if !inRegion[defID] || matched[defID] {
						continue
					}
					if _, locked := locks[defID]; locked {
						continue
					}
					pairs = append(pairs, pair{ops[defID], op})
					matched[defID], matched[op.ID] = true, true
					break
				}
				if matched[op.ID] {
					break
				}
			}
		}
	}
	re := newRegionEval(sc, f, region, lc, prof, mcfg, opts, asg)
	cur := re.cost()
	for pass := 0; pass < 2; pass++ {
		improved := false
		for _, pr := range pairs {
			origA, origB := asg[pr.a.ID], asg[pr.b.ID]
			bestA, bestB, bestCost := origA, origB, cur
			for c := 0; c < k; c++ {
				if c == origA && c == origB {
					continue
				}
				re.move(pr.a, c)
				re.move(pr.b, c)
				sc.tEvals++
				if nc := re.cost(); nc < bestCost {
					bestA, bestB, bestCost = c, c, nc
				}
			}
			re.move(pr.a, bestA)
			re.move(pr.b, bestB)
			if bestA != origA || bestB != origB {
				cur = bestCost
				improved = true
				sc.tMoves++
			}
		}
		if !improved {
			break
		}
	}
}

// EstimateRegionCost estimates the profile-weighted cycle contribution of a
// region under assignment asg without running the full list scheduler: per
// block, the maximum of the per-cluster resource bound, the intercluster
// bus bound, and the dependence-critical path including move latencies.
func EstimateRegionCost(f *ir.Func, region *cfg.Region, prof *interp.Profile,
	mcfg *machine.Config, asg []int) int64 {
	return estimateRegionCostScratch(&scratch{}, f, region, sched.NewLoopCtx(f), prof, mcfg, asg)
}

func estimateRegionCostScratch(sc *scratch, f *ir.Func, region *cfg.Region, lc *sched.LoopCtx,
	prof *interp.Profile, mcfg *machine.Config, asg []int) int64 {

	home := sc.home.HomeClustersFreq(f, asg, mcfg.NumClusters(), func(b *ir.Block) int64 {
		return blockFreq(prof, b)
	})
	var total int64
	for _, b := range region.Blocks {
		total += blockFreq(prof, b) * sc.est.blockLen(b, asg, home, lc, mcfg)
	}
	return total
}

// estScratch is the schedule estimator's reusable working memory: dense
// tables indexed by op ID, register, and (source entity, cluster) move key,
// generation-stamped so a new call starts fresh in O(1). The estimator runs
// once per candidate move of the refinement loops — the single hottest path
// of the whole pipeline — so it allocates nothing after warm-up.
type estScratch struct {
	gen   int64
	ready []int64 // by op ID: completion time estimate (valid when the
	// register's defGen stamp is current — a def is always estimated
	// before any of its uses)
	lastDef []int // by register: op ID of latest def
	defGen  []int64
	counts  []int   // [cluster][kind] flattened; zeroed per call
	moveSrc []int   // by move key: source cluster
	moveGen []int64 // by move key
	touched []int   // move keys recorded this call, in first-touch order

	// minLat is mcfg.MinMoveLat() memoized per config pointer: the drain
	// bound below charges the cheapest possible hop for the last move in
	// flight, which on non-uniform topologies is the admissible choice
	// (and equals MoveLatency exactly on bus/ring/mesh/uniform matrices).
	minLatCfg *machine.Config
	minLat    int
}

// prepare sizes the tables for f on a k-cluster machine and starts a new
// generation.
func (es *estScratch) prepare(f *ir.Func, k int) {
	if len(es.ready) < f.NOps {
		es.ready = make([]int64, f.NOps)
	}
	if len(es.lastDef) < f.NRegs {
		es.lastDef = make([]int, f.NRegs)
		es.defGen = make([]int64, f.NRegs)
	}
	if n := k * int(machine.NumFUKinds); len(es.counts) < n {
		es.counts = make([]int, n)
	} else {
		clear(es.counts[:n])
	}
	// Move keys: (def op ID, cluster) or (NOps + reg, cluster).
	if n := (f.NOps + f.NRegs) * k; len(es.moveSrc) < n {
		es.moveSrc = make([]int, n)
		es.moveGen = make([]int64, n)
	}
	es.touched = es.touched[:0]
	es.gen++
}

// EstimateBlockLen is the schedule-length estimate for one block. It tracks
// the list scheduler's three limiting factors but ignores second-order
// interactions, which keeps refinement fast.
func EstimateBlockLen(b *ir.Block, asg []int, home []int, lc *sched.LoopCtx, mcfg *machine.Config) int64 {
	var es estScratch
	return es.blockLen(b, asg, home, lc, mcfg)
}

func (es *estScratch) blockLen(b *ir.Block, asg []int, home []int, lc *sched.LoopCtx, mcfg *machine.Config) int64 {
	k := mcfg.NumClusters()
	f := b.Func
	es.prepare(f, k)
	if es.minLatCfg != mcfg {
		es.minLatCfg = mcfg
		es.minLat = mcfg.MinMoveLat()
	}
	addMove := func(entity, to, src int) {
		key := entity*k + to
		if es.moveGen[key] != es.gen {
			es.moveGen[key] = es.gen
			es.touched = append(es.touched, key)
		}
		es.moveSrc[key] = src
	}
	var length int64 = 1
	for _, op := range b.Ops {
		c := asg[op.ID]
		es.counts[c*int(machine.NumFUKinds)+int(machine.KindOf(op.Opcode))]++
		var start int64
		for _, a := range op.Args {
			if !a.IsReg() {
				continue
			}
			if d := int(a.Reg); es.defGen[d] == es.gen {
				def := es.lastDef[d]
				t := es.ready[def]
				if asg[def] != c {
					addMove(def, c, asg[def])
					t += int64(mcfg.MoveLat(asg[def], c))
				}
				if t > start {
					start = t
				}
			} else if int(a.Reg) < len(home) {
				if hc := home[a.Reg]; hc != sched.EverywhereHome && hc != c &&
					!(lc != nil && lc.FreeLiveIn(b, a.Reg)) {
					addMove(f.NOps+int(a.Reg), c, hc)
					if t := int64(mcfg.MoveLat(hc, c)); t > start {
						start = t
					}
				}
			}
		}
		done := start + int64(machine.Latency(op.Opcode))
		es.ready[op.ID] = done
		if done > length {
			length = done
		}
		if op.Dst != ir.NoReg {
			es.defGen[op.Dst] = es.gen
			es.lastDef[op.Dst] = op.ID
		}
	}
	// Moves occupy an integer-unit issue slot on their sending cluster.
	for _, key := range es.touched {
		es.counts[es.moveSrc[key]*int(machine.NumFUKinds)+int(machine.FUInt)]++
	}
	for c := 0; c < k; c++ {
		for kind := machine.FUKind(0); kind < machine.NumFUKinds; kind++ {
			cnt := es.counts[c*int(machine.NumFUKinds)+int(kind)]
			if cnt == 0 {
				continue
			}
			units := mcfg.Units(c, kind)
			if units == 0 {
				units = 1
			}
			if rb := int64((cnt + units - 1) / units); rb > length {
				length = rb
			}
		}
	}
	if n := len(es.touched); n > 0 {
		if bb := int64((n+mcfg.MoveBandwidth-1)/mcfg.MoveBandwidth) + int64(es.minLat); bb > length {
			length = bb
		}
	}
	return length
}
