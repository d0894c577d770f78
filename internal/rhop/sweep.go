package rhop

import (
	"fmt"
	"sort"

	"mcpart/internal/cfg"
	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/sched"
)

// FuncPartitioner partitions one function repeatedly under varying lock
// maps, as a data-mapping sweep does: the function-shaped work (def-use
// chains, regions, dependence slack, loop context, scratch tables) is built
// once, and per-region results are cached across calls.
//
// The cache is exact, not heuristic. PartitionFunc processes regions in a
// fixed heat order, and each region's outcome is a pure function of (a) the
// locks on that region's ops and (b) the assignment of previously-placed
// ops (which anchor live-in/live-out values) — everything else is function
// structure fixed at construction. The cache key encodes exactly (a) and
// (b), so a hit replays a byte-identical region result and Partition
// returns exactly what PartitionFunc would for the same locks (pinned by
// TestFuncPartitionerMatchesPartitionFunc).
//
// A FuncPartitioner is not safe for concurrent use; sweeps create one per
// worker (or per function, processed by one worker at a time).
type FuncPartitioner struct {
	f    *ir.Func
	prof *interp.Profile
	mcfg *machine.Config
	opts Options

	du  *cfg.DefUse
	ops []*ir.Op
	lc  *sched.LoopCtx
	pre []*regionPre // heat order, same as PartitionFunc

	sc     *scratch
	caches []map[string][]int // per region: key -> regionOps' clusters
	keyBuf []byte

	hits, misses int64
	// last-flushed observability tallies, so each Partition call flushes
	// only its own delta like one-shot PartitionFunc does.
	obsRegions, obsMoves, obsEvals  int64
	obsKWay, obsKWayHits, obsRefine int64
}

// NewFuncPartitioner prepares f for repeated partitioning. The preparation
// mirrors PartitionFunc's preamble exactly (including the heat-ordered
// region sort) so cached and uncached calls traverse regions identically.
func NewFuncPartitioner(f *ir.Func, prof *interp.Profile, mcfg *machine.Config, opts Options) *FuncPartitioner {
	fp := &FuncPartitioner{
		f: f, prof: prof, mcfg: mcfg, opts: opts,
		du: cfg.ComputeDefUse(f),
		lc: sched.NewLoopCtx(f),
		sc: &scratch{sched: sched.NewScratch(), dirtyEval: true},
	}
	fp.ops = f.OpsByID()
	regions := cfg.FormRegions(f)
	order := make([]*cfg.Region, len(regions))
	copy(order, regions)
	sort.SliceStable(order, func(i, j int) bool {
		return regionHeat(prof, order[i]) > regionHeat(prof, order[j])
	})
	fp.pre = make([]*regionPre, len(order))
	fp.caches = make([]map[string][]int, len(order))
	for i, region := range order {
		fp.pre[i] = newRegionPre(f, region, fp.du, fp.ops, mcfg)
		fp.caches[i] = map[string][]int{}
	}
	return fp
}

// Partition assigns every op of the prepared function to a cluster under
// the given locks, byte-identical to PartitionFunc(f, prof, mcfg, locks,
// opts). The returned slice is freshly allocated and owned by the caller.
func (fp *FuncPartitioner) Partition(locks Locks) ([]int, error) {
	f := fp.f
	k := fp.mcfg.NumClusters()
	asg := make([]int, f.NOps)
	for i := range asg {
		asg[i] = -1
	}
	for id, c := range locks {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("rhop: %s op %d locked to cluster %d of %d", f.Name, id, c, k)
		}
	}
	for ri, pre := range fp.pre {
		if len(pre.regionOps) == 0 {
			continue
		}
		pre.ensureHomeRefs(f, fp.du, fp.ops, fp.prof)
		buf := fp.regionKey(pre, locks, asg)
		if snap, ok := fp.caches[ri][string(buf)]; ok {
			for i, op := range pre.regionOps {
				asg[op.ID] = snap[i]
			}
			fp.hits++
			continue
		}
		key := string(buf)
		if err := partitionRegion(fp.sc, pre, f, fp.du, fp.ops, fp.lc, fp.prof, fp.mcfg, locks, fp.opts, asg); err != nil {
			return nil, err
		}
		snap := make([]int, len(pre.regionOps))
		for i, op := range pre.regionOps {
			snap[i] = asg[op.ID]
		}
		fp.caches[ri][key] = snap
		fp.misses++
	}
	for id, c := range asg {
		if c < 0 {
			return nil, fmt.Errorf("rhop: %s op %d left unassigned", f.Name, id)
		}
	}
	if o := fp.opts.Obs; o != nil {
		o.Counter("rhop_functions").Add(1)
		o.Counter("rhop_regions").Add(fp.sc.tRegions - fp.obsRegions)
		o.Counter("rhop_moves_accepted").Add(fp.sc.tMoves - fp.obsMoves)
		o.Counter("rhop_cost_evals").Add(fp.sc.tEvals - fp.obsEvals)
		o.Counter("rhop_kway_runs").Add(fp.sc.tKWay - fp.obsKWay)
		o.Counter("rhop_kway_memo_hits").Add(fp.sc.tKWayHits - fp.obsKWayHits)
		o.Counter("rhop_refine_runs").Add(fp.sc.tRefine - fp.obsRefine)
		fp.obsRegions, fp.obsMoves, fp.obsEvals = fp.sc.tRegions, fp.sc.tMoves, fp.sc.tEvals
		fp.obsKWay, fp.obsKWayHits, fp.obsRefine = fp.sc.tKWay, fp.sc.tKWayHits, fp.sc.tRefine
	}
	return asg, nil
}

// regionKey encodes the complete input closure of one region's
// partitioning: the lock state of each region op (in region order) and the
// prior assignments partitionRegion can observe — the out-of-region
// definers of the blocks' live-in registers (extHomeRefs), which cover the
// def-side graph anchors and are the only out-of-region assignments the
// cost scorer's and refiners' home computations depend on, and the
// out-of-region consumers the use-side anchors consult (extUseRefs). -1 and clusters 0..k-1 fit one byte each; k is
// bounded well below 254 by machine configs. The returned buffer is owned
// by fp and valid until the next call; callers look up with a zero-copy
// string conversion and materialize the key only to store.
func (fp *FuncPartitioner) regionKey(pre *regionPre, locks Locks, asg []int) []byte {
	buf := fp.keyBuf[:0]
	for _, op := range pre.regionOps {
		if c, ok := locks[op.ID]; ok {
			buf = append(buf, byte(c))
		} else {
			buf = append(buf, 0xFF)
		}
	}
	for _, id := range pre.extHomeRefs {
		buf = append(buf, byte(asg[id]+1))
	}
	for _, id := range pre.extUseRefs {
		buf = append(buf, byte(asg[id]+1))
	}
	fp.keyBuf = buf
	return buf
}

// Hits and Misses report the region-cache effectiveness across all
// Partition calls so far.
func (fp *FuncPartitioner) Hits() int64   { return fp.hits }
func (fp *FuncPartitioner) Misses() int64 { return fp.misses }

// TouchedObjects returns the sorted set of data-object IDs f's memory
// operations may access — the objects whose mapping can change f's locks,
// and therefore its partition and cycle count. A sweep only needs to
// re-evaluate f when one of these objects moves.
func TouchedObjects(f *ir.Func) []int {
	seen := map[int]bool{}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if !op.Opcode.IsMem() {
				continue
			}
			for _, o := range op.MayAccess {
				seen[o] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}
