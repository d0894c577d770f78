package partition

import (
	"reflect"
	"testing"

	"mcpart/internal/memo"
	"mcpart/internal/obs"
)

// cloneGraph deep-copies g so a mutation cannot reach the original.
func cloneGraph(g *Graph) *Graph {
	c := NewGraph(g.Len(), g.NumW)
	for u := range g.W {
		copy(c.W[u], g.W[u])
		c.Adj[u] = append([]Edge(nil), g.Adj[u]...)
	}
	copy(c.Fixed, g.Fixed)
	return c
}

// TestKWayKeyCoversEveryInput pins the min-cut memo's exactness: changing
// any single input KWay reads must change the key, while the value-neutral
// Workers and Obs must not.
func TestKWayKeyCoversEveryInput(t *testing.T) {
	base := randGraph(40, 4, 1, 11, true)
	opts := Options{Tol: []float64{0.1}, Fractions: []float64{0.25, 0.25, 0.25, 0.25}}
	const k = 4
	want := KWayKey(base, k, opts)
	if again := KWayKey(cloneGraph(base), k, opts); again != want {
		t.Fatal("key differs between identical graphs")
	}
	free := -1
	for u, f := range base.Fixed {
		if f == -1 {
			free = u
			break
		}
	}
	changed := []struct {
		name string
		edit func(g *Graph, o *Options) int
	}{
		{"node weight", func(g *Graph, o *Options) int { g.W[3][0]++; return k }},
		{"edge weight", func(g *Graph, o *Options) int {
			e := &g.Adj[5][0]
			e.W++
			for i := range g.Adj[e.To] {
				if g.Adj[e.To][i].To == 5 {
					g.Adj[e.To][i].W++
				}
			}
			return k
		}},
		{"adjacency order", func(g *Graph, o *Options) int {
			a := g.Adj[7]
			a[0], a[len(a)-1] = a[len(a)-1], a[0]
			return k
		}},
		{"fixed entry", func(g *Graph, o *Options) int { g.Fixed[free] = 2; return k }},
		{"k", func(g *Graph, o *Options) int { return 8 }},
		{"Tol", func(g *Graph, o *Options) int { o.Tol = []float64{0.11}; return k }},
		{"Fractions", func(g *Graph, o *Options) int {
			o.Fractions = []float64{0.3, 0.2, 0.25, 0.25}
			return k
		}},
		{"CoarseTarget", func(g *Graph, o *Options) int { o.CoarseTarget = 10; return k }},
		{"MaxPasses", func(g *Graph, o *Options) int { o.MaxPasses = 3; return k }},
	}
	if len(base.Adj[7]) < 2 {
		t.Fatal("test graph needs a node with two neighbors")
	}
	for _, c := range changed {
		g, o := cloneGraph(base), opts
		o.Tol = append([]float64(nil), opts.Tol...)
		o.Fractions = append([]float64(nil), opts.Fractions...)
		kk := c.edit(g, &o)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: edit broke the graph: %v", c.name, err)
		}
		if KWayKey(g, kk, o) == want {
			t.Errorf("%s: changing it leaves the key unchanged", c.name)
		}
	}
	neutral := opts
	neutral.Workers = 8
	neutral.Obs = obs.New(obs.NewRegistry(), nil, nil)
	if KWayKey(base, k, neutral) != want {
		t.Error("Workers/Obs changed the key; both are value-neutral")
	}
}

// TestKWayMemo pins the memoized entry point: a hit returns exactly the
// partition KWay computes, a nil cache passes through, and errors are
// never cached.
func TestKWayMemo(t *testing.T) {
	g := randGraph(60, 4, 1, 3, true)
	opts := Options{Tol: []float64{0.1}}
	want, err := KWay(g, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := memo.New(0)
	for i, wantHit := range []bool{false, true} {
		got, hit, err := KWayMemo(c, g, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if hit != wantHit || !reflect.DeepEqual(got, want) {
			t.Errorf("call %d: hit=%v, equal=%v; want hit=%v and KWay's partition",
				i, hit, reflect.DeepEqual(got, want), wantHit)
		}
	}
	if got, hit, err := KWayMemo(nil, g, 4, opts); err != nil || hit || !reflect.DeepEqual(got, want) {
		t.Errorf("nil cache: hit=%v err=%v, want a plain KWay run", hit, err)
	}
	before := c.Stats().Entries
	if _, _, err := KWayMemo(c, g, 3, opts); err == nil {
		t.Fatal("k=3 must fail")
	}
	if after := c.Stats().Entries; after != before {
		t.Errorf("a failed run was cached: %d -> %d entries", before, after)
	}
}
