package partition

import (
	"fmt"
	"sort"

	"mcpart/internal/defaults"
	"mcpart/internal/obs"
)

// Options tunes the partitioner.
type Options struct {
	// Tol is the per-dimension imbalance tolerance: part weight may reach
	// (1+Tol[d]) * total[d]/2. Dimensions beyond len(Tol) use the last
	// entry; an empty slice means 0.10 everywhere.
	Tol []float64
	// CoarseTarget stops coarsening once the graph is this small
	// (default 24 nodes).
	CoarseTarget int
	// MaxPasses bounds refinement passes per level (default 8).
	MaxPasses int
	// Fractions gives each part's target share of every weight dimension
	// (default equal shares). For Bisect it must have length 2 and sum to
	// ~1; KWay splits it across the recursion.
	Fractions []float64
	// Legacy selects the original partitioner path (per-node []Edge walks,
	// full candidate re-sorts every refinement pass, O(V·E) initial growth)
	// instead of the default CSR + gain-bucket FM fast path. It exists for
	// A/B ablation and as an escape hatch.
	Legacy bool
	// Workers bounds the goroutine fan-out of the fast path's parallel
	// multi-start initial partitioning; 0 means runtime.GOMAXPROCS(0).
	// The result is identical for every value.
	Workers int
	// Obs, when non-nil, receives the fast path's refinement metrics
	// (fm_moves, fm_rollbacks, fm_coarsen_levels, fm_bisections). Hot
	// loops tally into scratch fields and flush once per bisection, so a
	// nil Obs costs nothing on the refinement path.
	Obs *obs.Observer
}

// frac returns part p's target share for a 2-way split. Malformed
// Fractions (wrong length, non-positive sum, or a negative entry) fall
// back to equal shares.
func (o Options) frac(p int) float64 {
	if len(o.Fractions) != 2 {
		return 0.5
	}
	sum := o.Fractions[0] + o.Fractions[1]
	if sum <= 0 || o.Fractions[0] < 0 || o.Fractions[1] < 0 {
		return 0.5
	}
	return o.Fractions[p] / sum
}

// tol returns dimension d's imbalance tolerance. Dimensions beyond
// len(Tol) reuse the last entry; negative entries clamp to 0.
func (o Options) tol(d int) float64 {
	t := 0.10
	if len(o.Tol) > 0 {
		if d >= len(o.Tol) {
			d = len(o.Tol) - 1
		}
		t = o.Tol[d]
	}
	if t < 0 {
		return 0
	}
	return t
}

func (o Options) coarseTarget() int { return defaults.Int(o.CoarseTarget, 24) }
func (o Options) maxPasses() int    { return defaults.Int(o.MaxPasses, 8) }

// coarseTargetFast is the fast path's default coarsening floor. Initial
// partitioning is cheap there (heap-based growing + bucket FM), so it
// stops coarsening four times earlier than the legacy path: a larger
// coarsest graph gives the multi-start genuinely distinct candidates to
// carry through uncoarsening instead of sixteen tries collapsing into the
// same tiny-graph optimum. An explicit CoarseTarget overrides both paths
// alike.
func (o Options) coarseTargetFast() int { return defaults.Int(o.CoarseTarget, 96) }

// bscratch holds the bisection's reusable working memory: the matching and
// candidate tables that coarsen and refine would otherwise allocate at
// every level of the multilevel hierarchy. One bscratch serves one Bisect
// call — it is never shared across goroutines, so concurrent partitioner
// invocations (the parallel evaluation fan-out) stay race-free.
type bscratch struct {
	match    []int
	order    []int
	incident []int64
	cands    []cand
	inOne    []bool
}

// ints returns s resized to n, zeroed.
func (sc *bscratch) ints(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Bisect splits g into parts 0 and 1, minimizing cut weight subject to the
// per-dimension balance tolerances and the graph's fixed assignments.
func Bisect(g *Graph, opts Options) ([]int, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	for u, f := range g.Fixed {
		if f < -1 || f > 1 {
			return nil, fmt.Errorf("partition: node %d fixed to %d, want -1..1", u, f)
		}
	}
	return bisectUnchecked(g, opts), nil
}

// bisectUnchecked runs the bisection without re-validating g; KWay's
// recursion builds subgraphs that are correct by construction, so only the
// entry points validate.
func bisectUnchecked(g *Graph, opts Options) []int {
	if g.Len() == 0 {
		return nil
	}
	if opts.Legacy {
		return bisectRec(&bscratch{}, g, opts, 0)
	}
	return bisectFast(g, opts)
}

// level holds one step of the multilevel hierarchy.
type level struct {
	g     *Graph
	cmap  []int // fine node -> coarse node in next level
	finer *level
}

func bisectRec(sc *bscratch, g *Graph, opts Options, depth int) []int {
	// Coarsen.
	cur := &level{g: g}
	for cur.g.Len() > opts.coarseTarget() && depth < 64 {
		next, cmap, shrunk := coarsen(sc, cur.g)
		if !shrunk {
			break
		}
		cur = &level{g: next, cmap: cmap, finer: cur}
		// Reuse cmap position: store map on the finer level for projection.
		cur.finer.cmap = cmap
	}
	// Initial partition at the coarsest level: several greedy growings from
	// different seeds, each refined; keep the best by (balance violation,
	// cut weight) — the standard multi-start used by multilevel
	// partitioners.
	part := bestInitial(sc, cur.g, opts)
	// Uncoarsen, projecting and refining.
	for cur.finer != nil {
		fine := cur.finer
		fpart := make([]int, fine.g.Len())
		for u := range fpart {
			fpart[u] = part[fine.cmap[u]]
		}
		part = fpart
		cur = fine
		refine(sc, cur.g, part, opts)
	}
	return part
}

// coarsen performs one round of heavy-edge matching and returns the coarse
// graph, the fine-to-coarse map, and whether the graph actually shrank.
// The matching tables come from sc; the coarse graph and fine-to-coarse map
// are freshly allocated (the multilevel hierarchy retains them).
func coarsen(sc *bscratch, g *Graph) (*Graph, []int, bool) {
	n := g.Len()
	total := g.TotalW()
	// Limit merged node weight so coarse nodes stay partitionable.
	maxW := make([]int64, g.NumW)
	for d, t := range total {
		maxW[d] = t/3 + 1
	}
	sc.match = sc.ints(sc.match, n)
	match := sc.match
	for i := range match {
		match[i] = -1
	}
	// Visit nodes in descending order of incident edge weight so heavy
	// structures merge first; ties break on index for determinism.
	sc.order = sc.ints(sc.order, n)
	order := sc.order
	if cap(sc.incident) < n {
		sc.incident = make([]int64, n)
	}
	sc.incident = sc.incident[:n]
	clear(sc.incident)
	incident := sc.incident
	for u := range order {
		order[u] = u
		for _, e := range g.Adj[u] {
			incident[u] += e.W
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if incident[a] != incident[b] {
			return incident[a] > incident[b]
		}
		return a < b
	})
	matched := 0
	for _, u := range order {
		if match[u] != -1 {
			continue
		}
		best, bestW := -1, int64(-1)
		for _, e := range g.Adj[u] {
			v := e.To
			if match[v] != -1 {
				continue
			}
			if g.Fixed[u] != -1 && g.Fixed[v] != -1 && g.Fixed[u] != g.Fixed[v] {
				continue // cannot merge nodes locked to different parts
			}
			ok := true
			for d := range maxW {
				if g.W[u][d]+g.W[v][d] > maxW[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if e.W > bestW || (e.W == bestW && v < best) {
				best, bestW = v, e.W
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
			matched += 2
		} else {
			match[u] = u
		}
	}
	if matched < n/10 {
		return nil, nil, false
	}
	// Build the coarse graph.
	cmap := make([]int, n)
	for i := range cmap {
		cmap[i] = -1
	}
	cn := 0
	for u := 0; u < n; u++ {
		if cmap[u] != -1 {
			continue
		}
		cmap[u] = cn
		if match[u] != u {
			cmap[match[u]] = cn
		}
		cn++
	}
	cg := NewGraph(cn, g.NumW)
	for u := 0; u < n; u++ {
		cu := cmap[u]
		for d, w := range g.W[u] {
			cg.W[cu][d] += w
		}
		if g.Fixed[u] != -1 {
			cg.Fixed[cu] = g.Fixed[u]
		}
	}
	for u := 0; u < n; u++ {
		cu := cmap[u]
		for _, e := range g.Adj[u] {
			cv := cmap[e.To]
			if cu < cv {
				cg.Connect(cu, cv, e.W)
			}
		}
	}
	return cg, cmap, true
}

func bestInitial(sc *bscratch, g *Graph, opts Options) []int {
	total := g.TotalW()
	violationOf := func(part []int) int64 {
		pw := PartWeights(g, part, 2)
		var v int64
		for p := 0; p < 2; p++ {
			for d, t := range total {
				limit := int64(float64(t) * opts.frac(p) * (1 + opts.tol(d)))
				if over := pw[p][d] - limit; over > 0 {
					v += over
				}
			}
		}
		return v
	}
	var best []int
	var bestViol, bestCut int64
	for try := 0; try < 4; try++ {
		part := initialBisection(sc, g, opts, try)
		refine(sc, g, part, opts)
		viol, cut := violationOf(part), CutWeight(g, part)
		if best == nil || viol < bestViol || (viol == bestViol && cut < bestCut) {
			best, bestViol, bestCut = part, viol, cut
		}
	}
	return best
}

// initialBisection grows part 1 greedily from a seed until half the
// (normalized, combined) weight is collected, honoring fixed nodes. try
// selects among deterministic seed choices.
func initialBisection(sc *bscratch, g *Graph, opts Options, try int) []int {
	n := g.Len()
	part := make([]int, n)
	total := g.TotalW()
	norm := func(u int) float64 {
		s := 0.0
		for d, w := range g.W[u] {
			if total[d] > 0 {
				s += float64(w) / float64(total[d])
			}
		}
		return s
	}
	// Start from fixed assignments. Part 1 grows until it holds its
	// target fraction of the combined normalized weight.
	var grown float64
	half := 0.0
	for d := range total {
		if total[d] > 0 {
			half += opts.frac(1)
		}
	}
	if cap(sc.inOne) < n {
		sc.inOne = make([]bool, n)
	}
	sc.inOne = sc.inOne[:n]
	clear(sc.inOne)
	inOne := sc.inOne
	for u, f := range g.Fixed {
		if f == 1 {
			inOne[u] = true
			grown += norm(u)
		}
	}
	// Seed choice by try: 0 = the heaviest free node (hardest to place
	// later); k > 0 = the k-th free node counting from n*k/4, spreading
	// starts across the graph deterministically.
	if grown < half {
		seed := -1
		if try == 0 {
			bestW := -1.0
			for u := 0; u < n; u++ {
				if g.Fixed[u] == -1 && !inOne[u] && norm(u) > bestW {
					seed, bestW = u, norm(u)
				}
			}
		} else {
			for off := 0; off < n; off++ {
				u := (n*try/4 + off) % n
				if g.Fixed[u] == -1 && !inOne[u] {
					seed = u
					break
				}
			}
		}
		if seed >= 0 {
			inOne[seed] = true
			grown += norm(seed)
		}
	}
	// BFS-like growth preferring the frontier node with the heaviest
	// connection into part 1.
	for grown < half {
		best, bestGain := -1, int64(-1)
		for u := 0; u < n; u++ {
			if inOne[u] || g.Fixed[u] == 0 {
				continue
			}
			var gain int64
			for _, e := range g.Adj[u] {
				if inOne[e.To] {
					gain += e.W
				}
			}
			if gain > bestGain || (gain == bestGain && best == -1) {
				best, bestGain = u, gain
			}
		}
		if best == -1 {
			break
		}
		inOne[best] = true
		grown += norm(best)
	}
	for u := range part {
		if inOne[u] {
			part[u] = 1
		}
	}
	return part
}

// cand is one positive-gain move candidate of a refinement pass.
type cand struct {
	u int
	g int64
}

// refine runs FM-style passes moving free nodes between parts to reduce
// cut weight while keeping (or restoring) balance.
func refine(sc *bscratch, g *Graph, part []int, opts Options) {
	total := g.TotalW()
	// limit[p][d]: part p's cap on dimension d under its target fraction.
	limit := make([][]int64, 2)
	for p := 0; p < 2; p++ {
		limit[p] = make([]int64, g.NumW)
		for d, t := range total {
			limit[p][d] = int64(float64(t) * opts.frac(p) * (1 + opts.tol(d)))
		}
	}
	pw := PartWeights(g, part, 2)

	violation := func() int64 {
		var v int64
		for p := 0; p < 2; p++ {
			for d := range limit[p] {
				if over := pw[p][d] - limit[p][d]; over > 0 {
					v += over
				}
			}
		}
		return v
	}

	gain := func(u int) int64 {
		var same, other int64
		for _, e := range g.Adj[u] {
			if part[e.To] == part[u] {
				same += e.W
			} else {
				other += e.W
			}
		}
		return other - same
	}

	move := func(u int) {
		from := part[u]
		to := 1 - from
		for d, w := range g.W[u] {
			pw[from][d] -= w
			pw[to][d] += w
		}
		part[u] = to
	}

	for pass := 0; pass < opts.maxPasses(); pass++ {
		moved := false
		// Positive-gain, balance-respecting moves in descending gain order.
		cands := sc.cands[:0]
		for u := 0; u < g.Len(); u++ {
			if g.Fixed[u] != -1 {
				continue
			}
			if gu := gain(u); gu > 0 {
				cands = append(cands, cand{u, gu})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].g != cands[j].g {
				return cands[i].g > cands[j].g
			}
			return cands[i].u < cands[j].u
		})
		sc.cands = cands
		for _, c := range cands {
			if gain(c.u) <= 0 { // may have changed after earlier moves
				continue
			}
			before := violation()
			move(c.u)
			if violation() > before {
				move(c.u) // undo: would worsen balance
				continue
			}
			moved = true
		}
		// Rebalancing: while over limit, move the best-gain node out of the
		// overweight part even at negative gain.
		for violation() > 0 {
			// Find the part with the largest violation.
			from := 0
			var worst int64 = -1
			for p := 0; p < 2; p++ {
				var v int64
				for d := range limit[p] {
					if over := pw[p][d] - limit[p][d]; over > 0 {
						v += over
					}
				}
				if v > worst {
					worst, from = v, p
				}
			}
			best, bestGain := -1, int64(0)
			for u := 0; u < g.Len(); u++ {
				if part[u] != from || g.Fixed[u] != -1 {
					continue
				}
				hasWeight := false
				for d := range limit[from] {
					if g.W[u][d] > 0 && pw[from][d] > limit[from][d] {
						hasWeight = true
					}
				}
				if !hasWeight {
					continue
				}
				if gu := gain(u); best == -1 || gu > bestGain {
					best, bestGain = u, gu
				}
			}
			if best == -1 {
				break // nothing movable: fixed nodes make this infeasible
			}
			before := violation()
			move(best)
			if violation() >= before {
				move(best)
				break
			}
			moved = true
		}
		if !moved {
			break
		}
	}
}

// kwayScratch holds KWay's reusable fine-to-subgraph remap table, shared
// across every level of the recursion (each level rebuilds it from zero).
type kwayScratch struct {
	back []int
}

// remap returns the remap table resized to n and zeroed. Entries hold
// subgraph index + 1, with 0 meaning "not on this side".
func (sc *kwayScratch) remap(n int) []int {
	if cap(sc.back) < n {
		sc.back = make([]int, n)
	}
	sc.back = sc.back[:n]
	clear(sc.back)
	return sc.back
}

// KWay partitions g into k parts (k a power of two) by recursive bisection.
// Fixed assignments must be in [0,k).
func KWay(g *Graph, k int, opts Options) ([]int, error) {
	if k < 1 || k&(k-1) != 0 {
		return nil, fmt.Errorf("partition: k=%d is not a power of two", k)
	}
	if k == 1 {
		return make([]int, g.Len()), nil
	}
	for u, f := range g.Fixed {
		if f < -1 || f >= k {
			return nil, fmt.Errorf("partition: node %d fixed to %d, want -1..%d", u, f, k-1)
		}
	}
	// Validate once here; the recursion's subgraphs are symmetric by
	// construction, so revalidating at every level would only repeat work.
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	return kwayRec(&kwayScratch{}, g, k, opts), nil
}

func kwayRec(sc *kwayScratch, g *Graph, k int, opts Options) []int {
	if k == 1 {
		return make([]int, g.Len())
	}
	if k == 2 {
		return bisectUnchecked(g, opts)
	}
	// First split: parts < k/2 vs >= k/2, with fraction targets summed per
	// half when provided.
	topOpts := opts
	if len(opts.Fractions) == k {
		var lo, hi float64
		for p, f := range opts.Fractions {
			if p < k/2 {
				lo += f
			} else {
				hi += f
			}
		}
		topOpts.Fractions = []float64{lo, hi}
	} else {
		topOpts.Fractions = nil
	}
	// The top-level split only needs different fixed assignments; weights
	// and adjacency are read-only to the bisection, so share them.
	top := &Graph{NumW: g.NumW, W: g.W, Adj: g.Adj, Fixed: make([]int, g.Len())}
	for u, f := range g.Fixed {
		switch {
		case f == -1:
			top.Fixed[u] = -1
		case f < k/2:
			top.Fixed[u] = 0
		default:
			top.Fixed[u] = 1
		}
	}
	half := bisectUnchecked(top, topOpts)
	out := make([]int, g.Len())
	for side := 0; side < 2; side++ {
		idx := make([]int, 0, g.Len())
		back := sc.remap(g.Len())
		for u := range half {
			if half[u] == side {
				back[u] = len(idx) + 1
				idx = append(idx, u)
			}
		}
		sub := NewGraph(len(idx), g.NumW)
		for i, u := range idx {
			copy(sub.W[i], g.W[u])
			if f := g.Fixed[u]; f != -1 {
				sub.Fixed[i] = f - side*(k/2)
				if sub.Fixed[i] < 0 || sub.Fixed[i] >= k/2 {
					sub.Fixed[i] = -1 // fixed to the other side; unreachable
				}
			}
			// Neighbor lists hold unique targets (Connect merges parallel
			// edges), so append directly; symmetry of g.Adj gives each
			// surviving edge its twin when the neighbor's turn comes.
			for _, e := range g.Adj[u] {
				if j := back[e.To]; j > 0 {
					sub.Adj[i] = append(sub.Adj[i], Edge{To: j - 1, W: e.W})
				}
			}
		}
		subOpts := opts
		if len(opts.Fractions) == k {
			subOpts.Fractions = append([]float64(nil), opts.Fractions[side*(k/2):(side+1)*(k/2)]...)
		} else {
			subOpts.Fractions = nil
		}
		subPart := kwayRec(sc, sub, k/2, subOpts)
		for i, u := range idx {
			out[u] = side*(k/2) + subPart[i]
		}
	}
	return out
}
