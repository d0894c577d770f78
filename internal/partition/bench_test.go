package partition

import (
	"fmt"
	"testing"
)

// benchGraphs spans the sizes the engine is meant to hold up on: the CSR
// rebuild cost must pay for itself by 1k nodes, and the gain-bucket FM
// has to hold its O((V+E) log V)-ish profile out to 100k.
var benchGraphs = []struct {
	n, deg, dims int
}{
	{1_000, 6, 1},
	{10_000, 8, 2},
	{100_000, 8, 2},
}

func BenchmarkBisect(b *testing.B) {
	for _, bg := range benchGraphs {
		g := randGraph(bg.n, bg.deg, bg.dims, 1, true)
		name := fmt.Sprintf("n=%d/deg=%d/dims=%d", bg.n, bg.deg, bg.dims)
		b.Run(name, func(b *testing.B) {
			opts := Options{Tol: []float64{0.15}, Workers: 1}
			b.ReportAllocs()
			var cut int64
			for i := 0; i < b.N; i++ {
				part, err := Bisect(g, opts)
				if err != nil {
					b.Fatal(err)
				}
				cut = CutWeight(g, part)
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

func BenchmarkKWay(b *testing.B) {
	for _, bg := range benchGraphs[:2] {
		g := randGraph(bg.n, bg.deg, bg.dims, 1, true)
		name := fmt.Sprintf("k=4/n=%d/dims=%d", bg.n, bg.dims)
		b.Run(name, func(b *testing.B) {
			opts := Options{Tol: []float64{0.15}, Workers: 1}
			b.ReportAllocs()
			var cut int64
			for i := 0; i < b.N; i++ {
				part, err := KWay(g, 4, opts)
				if err != nil {
					b.Fatal(err)
				}
				cut = CutWeight(g, part)
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}
