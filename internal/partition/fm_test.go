package partition

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// violCut scores a bisection the way bestInitialFM does: total
// balance violation first, cut weight second.
func violCut(g *Graph, part []int, opts Options) (int64, int64) {
	total := g.TotalW()
	pw := PartWeights(g, part, 2)
	var viol int64
	for p := 0; p < 2; p++ {
		for d, t := range total {
			limit := int64(float64(t) * opts.frac(p) * (1 + opts.tol(d)))
			if over := pw[p][d] - limit; over > 0 {
				viol += over
			}
		}
	}
	return viol, CutWeight(g, part)
}

// readLegacyGolden returns the whitespace-split fields of every data line
// in testdata/name. The legacy-engine goldens hold the reference values the
// deleted legacy bisection engine produced; nothing regenerates them, so
// they keep its quality bound fixed.
func readLegacyGolden(t *testing.T, name string, fields int) [][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != fields {
			t.Fatalf("%s: malformed line %q", name, line)
		}
		rows = append(rows, f)
	}
	return rows
}

// atoi parses a golden field.
func atoi(t *testing.T, s string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFastNoWorseThanLegacy is the quality property pinning the engine's
// results to the legacy engine's on seeded random graphs (with fixed
// nodes and multi-dimensional weights): lexicographically by (balance
// violation, cut weight), the engine is never worse than the legacy
// (violation, cut) recorded in testdata/legacy_bisect.golden. In
// particular it never violates a tolerance the legacy engine satisfied.
func TestFastNoWorseThanLegacy(t *testing.T) {
	rows := readLegacyGolden(t, "legacy_bisect.golden", 7)
	if len(rows) != 32 {
		t.Fatalf("golden has %d rows, want 32 (4 configs x 8 seeds)", len(rows))
	}
	for _, r := range rows {
		n, deg, dims := int(atoi(t, r[0])), int(atoi(t, r[1])), int(atoi(t, r[2]))
		withFixed, seed := r[3] == "true", atoi(t, r[4])
		lv, lc := atoi(t, r[5]), atoi(t, r[6])
		g := randGraph(n, deg, dims, seed, withFixed)
		opts := Options{Tol: []float64{0.15}}
		fast, err := Bisect(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		fv, fc := violCut(g, fast, opts)
		if fv > lv || (fv == lv && fc > lc) {
			t.Errorf("n=%d deg=%d dims=%d seed=%d: engine (viol=%d cut=%d) worse than legacy (viol=%d cut=%d)",
				n, deg, dims, seed, fv, fc, lv, lc)
		}
		for u := range fast {
			if g.Fixed[u] != -1 && fast[u] != g.Fixed[u] {
				t.Fatalf("n=%d seed=%d: engine moved fixed node %d", n, seed, u)
			}
		}
	}
}

// TestFastDeterminism pins the engine's determinism contract: the
// partition is identical across repeated runs and across every Workers
// value, including a configuration whose coarsest graph is large enough
// (>= parallelTryMin nodes) that the multi-start actually fans out.
func TestFastDeterminism(t *testing.T) {
	g := randGraph(2000, 5, 2, 42, true)
	for _, workers := range []int{0, 1, 8} {
		opts := Options{
			Tol:          []float64{0.15},
			CoarseTarget: 600, // keep the coarsest level above parallelTryMin
			Workers:      workers,
		}
		base, err := Bisect(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			p, err := Bisect(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for u := range base {
				if p[u] != base[u] {
					t.Fatalf("workers=%d rep=%d: nondeterministic at node %d", workers, rep, u)
				}
			}
		}
	}
	// Cross-worker equality: -j1 and -j8 must agree bit for bit.
	opts1 := Options{Tol: []float64{0.15}, CoarseTarget: 600, Workers: 1}
	opts8 := opts1
	opts8.Workers = 8
	p1, err := Bisect(g, opts1)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := Bisect(g, opts8)
	if err != nil {
		t.Fatal(err)
	}
	for u := range p1 {
		if p1[u] != p8[u] {
			t.Fatalf("-j1 vs -j8 diverge at node %d", u)
		}
	}
}

// TestKWayFastMatchesQuality runs the 4-way recursion on random graphs
// and checks the engine's total cut is no worse than the legacy engine's,
// recorded in testdata/legacy_kway.golden.
func TestKWayFastMatchesQuality(t *testing.T) {
	rows := readLegacyGolden(t, "legacy_kway.golden", 2)
	if len(rows) != 6 {
		t.Fatalf("golden has %d rows, want 6 seeds", len(rows))
	}
	for _, r := range rows {
		seed, lc := atoi(t, r[0]), atoi(t, r[1])
		g := randGraph(240, 5, 2, 100+seed, false)
		fast, err := KWay(g, 4, Options{Tol: []float64{0.2}})
		if err != nil {
			t.Fatal(err)
		}
		if fc := CutWeight(g, fast); fc > lc {
			t.Errorf("seed %d: engine 4-way cut %d > legacy %d", seed, fc, lc)
		}
	}
}

// TestBucketsBasic exercises the gain-bucket structure directly —
// inserts, removals, relinking, and lazy cursor invalidation — under both
// backends: the linear-scan mode tiny graphs get and the lazy heap used
// above scanSelectMax. The observable drain order must be identical.
func TestBucketsBasic(t *testing.T) {
	for _, mode := range []string{"scan", "heap"} {
		t.Run(mode, func(t *testing.T) {
			n := 8
			if mode == "heap" {
				n = scanSelectMax + 8 // force the heap backend
			}
			gains := make([]int64, n)
			var b buckets
			b.reset(n, gains)
			if wantScan := mode == "scan"; b.scan != wantScan {
				t.Fatalf("scan backend = %v, want %v", b.scan, wantScan)
			}
			for u := 7; u >= 0; u-- {
				gains[u] = int64(u % 3) // gains 0,1,2 shared by several nodes
				b.insert(u, gains[u])
			}
			if got := b.popMax(); got != 2 {
				t.Fatalf("popMax = %d, want 2 (lowest index of gain 2)", got)
			}
			b.remove(2, 2)
			if got := b.popMax(); got != 5 {
				t.Fatalf("popMax after removing 2 = %d, want 5", got)
			}
			// Relink node 5 from gain 2 to gain 10.
			b.remove(5, 2)
			gains[5] = 10
			b.insert(5, 10)
			if got := b.popMax(); got != 5 {
				t.Fatalf("popMax after relink = %d, want 5", got)
			}
			b.remove(5, 10)
			gains[5] = 2
			// Drain: gain-1 nodes then gain-0 nodes, ascending within a bucket.
			var order []int
			for {
				u := b.popMax()
				if u < 0 {
					break
				}
				order = append(order, u)
				b.remove(u, gains[u])
			}
			want := []int{1, 4, 7, 0, 3, 6}
			if fmt.Sprint(order) != fmt.Sprint(want) {
				t.Fatalf("drain order %v, want %v", order, want)
			}
		})
	}
}
