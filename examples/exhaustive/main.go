// Exhaustive data-mapping exploration of a user-written kernel (the
// methodology behind the paper's Figure 9), showing how strongly placement
// decisions matter for a pointer-heavy workload: a hash-join-style kernel
// where one probe loop touches two tables through a conditionally assigned
// pointer — the shape of the paper's Figure 4.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"mcpart"
)

const src = `
global int hot[128];
global int cold[128];
global int hist[16];

func probe(int n) int {
    int i;
    int hits = 0;
    for (i = 0; i < n; i = i + 1) {
        int *t;
        int key = (i * 2654435761) % 128;
        if (key < 0) { key = -key; }
        if (key % 4 != 0) { t = hot; } else { t = cold; }
        int v = t[key];
        hist[v % 16] = hist[v % 16] + 1;
        if (v > 64) { hits = hits + 1; }
    }
    return hits;
}

func main() int {
    int i;
    for (i = 0; i < 128; i = i + 1) { hot[i] = i; cold[i] = 128 - i; }
    return probe(512);
}`

func main() {
	ctx := context.Background()
	prog, err := mcpart.Compile(ctx, "hashprobe", src, mcpart.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("kernel objects (note: `hot` and `cold` merge — one load reaches both):")
	for _, o := range prog.Objects() {
		fmt.Printf("  %-6s %5d bytes %6d accesses\n", o.Name, o.Bytes, o.Accesses)
	}

	m := mcpart.Paper2Cluster(10) // high latency makes placement critical
	ex, err := mcpart.ExhaustiveSearch(ctx, prog, m, mcpart.Options{}, 14)
	if err != nil {
		log.Fatal(err)
	}

	sorted := ex.Points
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cycles < sorted[j].Cycles })

	fmt.Printf("\n%d mappings evaluated; best %d cycles, worst %d cycles\n",
		len(sorted), ex.Best, ex.Worst)
	fmt.Println("top five mappings (mask bit i = cluster of object i):")
	for _, p := range sorted[:5] {
		marks := ""
		if p.Mask == ex.GDPMask {
			marks = "  <- GDP's choice"
		}
		fmt.Printf("  mask %04b  %7d cycles  imbalance %.2f%s\n",
			p.Mask, p.Cycles, p.Imbalance, marks)
	}
	gp := ex.Find(ex.GDPMask)
	pp := ex.Find(ex.PMaxMask)
	fmt.Printf("\nGDP  picked mask %04b: %.3fx of worst, imbalance %.2f\n",
		gp.Mask, gp.PerfVsWorst, gp.Imbalance)
	fmt.Printf("PMax picked mask %04b: %.3fx of worst, imbalance %.2f\n",
		pp.Mask, pp.PerfVsWorst, pp.Imbalance)
	fmt.Println("\nGDP must keep the merged {hot, cold} group together and balance bytes;")
	fmt.Println("faster but fully-imbalanced mappings exist — the Figure 9 trade-off the")
	fmt.Println("paper discusses (they are achievable by loosening gdp.Options.MemTol).")
}
