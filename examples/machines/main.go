// Machine-configuration study: how the same program partitions onto
// different multicluster targets — the paper's 2-cluster machine at three
// move latencies, a 4-cluster scaling, and the heterogeneous 2-cluster
// machine from the paper's §2 (cluster 0 with twice the integer units,
// where "balanced" means 2:1 op counts).
package main

import (
	"context"
	"fmt"
	"log"

	"mcpart"
)

func main() {
	ctx := context.Background()
	prog, err := mcpart.LoadBenchmark("sobel")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sobel 3x3 edge detector on every machine preset")

	machines := []*mcpart.Machine{
		mcpart.Paper2Cluster(1),
		mcpart.Paper2Cluster(5),
		mcpart.Paper2Cluster(10),
		mcpart.FourCluster(5),
		mcpart.Heterogeneous2(5),
	}
	fmt.Printf("%-16s %10s %10s %10s %8s\n", "machine", "unified", "GDP", "rel", "moves")
	for _, m := range machines {
		cmp, err := mcpart.EvaluateAll(ctx, prog, m, mcpart.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %10d %10d %9.1f%% %8d\n", m.Name,
			cmp.Unified.Cycles, cmp.GDP.Cycles,
			100*mcpart.RelativePerf(cmp.Unified, cmp.GDP), cmp.GDP.Moves)
	}

	// Asymmetric scratchpads: cluster 0 has 3x the memory of cluster 1;
	// the data partitioner honors the capacity ratio (paper §3.3.2).
	asym, err := mcpart.WithMemCapacities(mcpart.Paper2Cluster(5), 3*8192, 8192)
	if err != nil {
		log.Fatal(err)
	}
	asym.Name = "asym-mem-3:1"
	cmpA, err := mcpart.EvaluateAll(ctx, prog, asym, mcpart.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var b0, b1 int64
	for _, o := range prog.Objects() {
		if cmpA.GDP.DataMap[o.ID] == 0 {
			b0 += o.Bytes
		} else {
			b1 += o.Bytes
		}
	}
	fmt.Printf("\nasymmetric memories (3:1): GDP placed %d B on cluster 0, %d B on cluster 1\n", b0, b1)

	// On the 4-cluster machine, show where the data landed.
	m4 := mcpart.FourCluster(5)
	cmp, err := mcpart.EvaluateAll(ctx, prog, m4, mcpart.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n4-cluster GDP data placement:")
	byCluster := map[int][]string{}
	for _, o := range prog.Objects() {
		c := cmp.GDP.DataMap[o.ID]
		byCluster[c] = append(byCluster[c], fmt.Sprintf("%s(%dB)", o.Name, o.Bytes))
	}
	for c := 0; c < 4; c++ {
		fmt.Printf("  cluster %d: %v\n", c, byCluster[c])
	}
}
