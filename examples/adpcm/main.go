// The paper's motivating workload: the ADPCM audio coder (rawcaudio).
// This example walks the full pipeline the way §3 describes it —
// points-to-annotated objects, access-pattern merge groups, the first-pass
// data partition, and the second-pass computation partition — and sweeps
// the intercluster move latency like Figures 7 and 8.
package main

import (
	"context"
	"fmt"
	"log"

	"mcpart"
	"mcpart/internal/gdp"
)

func main() {
	ctx := context.Background()
	prog, err := mcpart.LoadBenchmark("rawcaudio")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rawcaudio: IMA ADPCM encoder over 1200 PCM samples")
	fmt.Printf("profiling checksum: %d\n\n", prog.Checksum())

	// First pass in isolation: global data partitioning (§3.3).
	dp, err := mcpart.PartitionData(prog, 2, gdp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	objs := prog.Objects()
	fmt.Println("access-pattern merge groups (§3.3.1):")
	for gi, group := range dp.Groups {
		fmt.Printf("  group %d (%d bytes):", gi, dp.GroupBytes[gi])
		for _, id := range group {
			fmt.Printf(" %s", objs[id].Name)
		}
		fmt.Println()
	}
	fmt.Println("\nfirst-pass data partition (§3.3.2):")
	for _, o := range objs {
		fmt.Printf("  %-16s -> cluster %d memory\n", o.Name, dp.DataMap[o.ID])
	}

	// Full pipeline across move latencies (Figures 7, 8a, 8b).
	fmt.Println("\nlatency sweep (performance relative to unified memory):")
	fmt.Printf("%8s %12s %12s %12s\n", "latency", "GDP", "ProfileMax", "Naive")
	for _, lat := range []int{1, 5, 10} {
		m := mcpart.Paper2Cluster(lat)
		cmp, err := mcpart.EvaluateAll(ctx, prog, m, mcpart.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %11.1f%% %11.1f%% %11.1f%%\n", lat,
			100*mcpart.RelativePerf(cmp.Unified, cmp.GDP),
			100*mcpart.RelativePerf(cmp.Unified, cmp.PMax),
			100*mcpart.RelativePerf(cmp.Unified, cmp.Naive))
	}

	// How close is GDP to the best achievable mapping? (Figure 9.)
	m := mcpart.Paper2Cluster(5)
	ex, err := mcpart.ExhaustiveSearch(ctx, prog, m, mcpart.Options{}, 14)
	if err != nil {
		log.Fatal(err)
	}
	gdpPt := ex.Find(ex.GDPMask)
	fmt.Printf("\nexhaustive search over %d mappings: best %d, worst %d cycles\n",
		len(ex.Points), ex.Best, ex.Worst)
	fmt.Printf("GDP's mapping achieves %.3fx of the worst (best possible: %.3fx)\n",
		gdpPt.PerfVsWorst, float64(ex.Worst)/float64(ex.Best))
}
