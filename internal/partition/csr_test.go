package partition

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestBuildCSRRoundTrip checks that the flattened view reproduces the
// Graph exactly: weights, fixed assignments, and every directed edge half
// in the original adjacency order.
func TestBuildCSRRoundTrip(t *testing.T) {
	g := randGraph(80, 5, 3, 7, true)
	c := BuildCSR(g)
	if err := c.Validate(); err != nil {
		t.Fatalf("built CSR invalid: %v", err)
	}
	if c.Len() != g.Len() || c.Dims != g.NumW {
		t.Fatalf("shape: %d/%d nodes, %d/%d dims", c.Len(), g.Len(), c.Dims, g.NumW)
	}
	for u := 0; u < g.Len(); u++ {
		for d := 0; d < g.NumW; d++ {
			if c.W[u*c.Dims+d] != g.W[u][d] {
				t.Fatalf("node %d dim %d weight %d, want %d", u, d, c.W[u*c.Dims+d], g.W[u][d])
			}
		}
		if int(c.Fixed[u]) != g.Fixed[u] {
			t.Fatalf("node %d fixed %d, want %d", u, c.Fixed[u], g.Fixed[u])
		}
		deg := int(c.XAdj[u+1] - c.XAdj[u])
		if deg != len(g.Adj[u]) {
			t.Fatalf("node %d degree %d, want %d", u, deg, len(g.Adj[u]))
		}
		for i, e := range g.Adj[u] {
			j := int(c.XAdj[u]) + i
			if int(c.Adj[j]) != e.To || c.AdjW[j] != e.W {
				t.Fatalf("node %d edge %d: (%d,%d), want (%d,%d)", u, i, c.Adj[j], c.AdjW[j], e.To, e.W)
			}
		}
	}
	tg, tc := g.TotalW(), c.TotalW()
	for d := range tg {
		if tg[d] != tc[d] {
			t.Fatalf("total dim %d: %d vs %d", d, tc[d], tg[d])
		}
	}
}

// TestCSRValidateMalformed drives CSR.Validate through every malformation
// it documents.
func TestCSRValidateMalformed(t *testing.T) {
	// good is a 3-node path 0-1-2 with unit weights.
	good := func() *CSR {
		return &CSR{
			Dims:  1,
			XAdj:  []int32{0, 1, 3, 4},
			Adj:   []int32{1, 0, 2, 1},
			AdjW:  []int64{5, 5, 7, 7},
			W:     []int64{1, 1, 1},
			Fixed: []int32{-1, -1, -1},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good CSR rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*CSR)
		want string
	}{
		{"negative dims", func(c *CSR) { c.Dims = -1 }, "negative weight dimension"},
		{"offset count", func(c *CSR) { c.XAdj = c.XAdj[:3] }, "offsets"},
		{"node weight count", func(c *CSR) { c.W = c.W[:2] }, "node weights"},
		{"edge weight count", func(c *CSR) { c.AdjW = c.AdjW[:3] }, "edge weights"},
		{"offset start", func(c *CSR) { c.XAdj[0] = 1 }, "offsets start"},
		{"offset end", func(c *CSR) { c.XAdj[3] = 3 }, "offsets end"},
		{"decreasing offsets", func(c *CSR) { c.XAdj[1] = 3; c.XAdj[2] = 1 }, "offsets decrease"},
		{"fixed range", func(c *CSR) { c.Fixed[1] = -2 }, "fixed"},
		{"neighbor range", func(c *CSR) { c.Adj[0] = 9 }, "out of range"},
		{"self edge", func(c *CSR) { c.Adj[0] = 0 }, "self-edge"},
		{"missing twin", func(c *CSR) { c.Adj[3] = 0; c.AdjW[3] = 7 }, "twin"},
		{"weight mismatch twin", func(c *CSR) { c.AdjW[2] = 8 }, "twin"},
	}
	for _, tc := range cases {
		c := good()
		tc.mut(c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want substring %q", tc.name, err, tc.want)
		}
	}
	empty := &CSR{XAdj: []int32{0}}
	if err := empty.Validate(); err != nil {
		t.Errorf("empty CSR rejected: %v", err)
	}
	badEmpty := &CSR{XAdj: []int32{0}, Adj: []int32{0}, AdjW: []int64{1}}
	if err := badEmpty.Validate(); err == nil {
		t.Error("empty CSR with edges accepted")
	}
}

// TestGraphValidateMalformed covers Graph.Validate on inputs a buggy
// caller could hand the partitioner entry points.
func TestGraphValidateMalformed(t *testing.T) {
	mk := func() *Graph {
		g := NewGraph(3, 2)
		g.Connect(0, 1, 4)
		g.Connect(1, 2, 6)
		return g
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("good graph rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Graph)
	}{
		{"short weight vector", func(g *Graph) { g.W[1] = g.W[1][:1] }},
		{"edge out of range", func(g *Graph) { g.Adj[0] = append(g.Adj[0], Edge{To: 5, W: 1}) }},
		{"negative target", func(g *Graph) { g.Adj[0] = append(g.Adj[0], Edge{To: -1, W: 1}) }},
		{"self edge", func(g *Graph) { g.Adj[2] = append(g.Adj[2], Edge{To: 2, W: 1}) }},
		{"asymmetric edge", func(g *Graph) { g.Adj[0] = append(g.Adj[0], Edge{To: 2, W: 3}) }},
		{"twin weight mismatch", func(g *Graph) { g.Adj[0][0].W = 99 }},
	}
	for _, tc := range cases {
		g := mk()
		tc.mut(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// coarseDigest is the canonical digest of one coarsening round: the
// shrunk flag, then (when it shrank) the fine-to-coarse map and each
// coarse node's weights, fixed part and neighbour weights sorted by
// neighbour. Adjacency order is left out, so equal coarse graphs built in
// different orders digest alike.
func coarseDigest(ok bool, cmap []int32, c *CSR) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shrunk=%v\n", ok)
	if ok {
		wide := make([]int, len(cmap))
		for i, v := range cmap {
			wide[i] = int(v)
		}
		fmt.Fprintf(&sb, "n=%d cmap=%v\n", c.Len(), wide)
		for cu := 0; cu < c.Len(); cu++ {
			var adj [][2]int64
			for i := c.XAdj[cu]; i < c.XAdj[cu+1]; i++ {
				adj = append(adj, [2]int64{int64(c.Adj[i]), c.AdjW[i]})
			}
			slices.SortFunc(adj, func(a, b [2]int64) int { return int(a[0] - b[0]) })
			fmt.Fprintf(&sb, "%d w=%v fixed=%d adj=%v\n", cu, c.W[cu*c.Dims:(cu+1)*c.Dims], c.Fixed[cu], adj)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// TestCoarsenCSRMatchesLegacy pins one round of coarsenCSR to the legacy
// engine's coarsening, recorded as a coarse-node count and canonical
// digest per seed in testdata/legacy_coarsen.golden: the same matching
// must produce the same coarse graph up to adjacency order.
func TestCoarsenCSRMatchesLegacy(t *testing.T) {
	rows := readLegacyGolden(t, "legacy_coarsen.golden", 3)
	if len(rows) != 5 {
		t.Fatalf("golden has %d rows, want 5 seeds", len(rows))
	}
	for _, r := range rows {
		seed := atoi(t, r[0])
		g := randGraph(200, 6, 2, seed, seed%2 == 0)
		csr := BuildCSR(g)
		cg, cmap, ok := coarsenCSR(&fmScratch{}, csr, csr.TotalW())
		n := 0
		if ok {
			if err := cg.Validate(); err != nil {
				t.Fatalf("seed %d: coarse CSR invalid: %v", seed, err)
			}
			n = cg.Len()
		}
		if got := strconv.Itoa(n); got != r[1] {
			t.Errorf("seed %d: %s coarse nodes, want %s", seed, got, r[1])
		}
		if got := coarseDigest(ok, cmap, cg); got != r[2] {
			t.Errorf("seed %d: coarse graph digest %s, want %s", seed, got, r[2])
		}
	}
}

// randGraph builds a connected random graph: a spanning path plus extra
// random edges up to roughly the requested average degree, weights in
// [1,100] per dimension, and (optionally) a few fixed nodes.
func randGraph(n, deg, dims int, seed int64, withFixed bool) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n, dims)
	for u := 0; u < n; u++ {
		for d := 0; d < dims; d++ {
			g.W[u][d] = int64(1 + rng.Intn(100))
		}
	}
	for u := 1; u < n; u++ {
		g.Connect(u-1, u, int64(1+rng.Intn(50)))
	}
	extra := n * (deg - 2) / 2
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.Connect(u, v, int64(1+rng.Intn(50)))
		}
	}
	if withFixed {
		for i := 0; i <= n/64; i++ {
			g.Fixed[rng.Intn(n)] = rng.Intn(2)
		}
	}
	return g
}
