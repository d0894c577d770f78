// Cache extension study (the paper's §5 future work): what happens to a
// data partition when the per-cluster memories are finite caches instead of
// perfect scratchpads? This example traces a benchmark's memory accesses,
// replays them through per-cluster LRU caches under three placements (GDP,
// colocated, round-robin), and compares against one unified cache of the
// combined capacity.
package main

import (
	"context"
	"fmt"
	"log"

	"mcpart"
	"mcpart/internal/cache"
	"mcpart/internal/gdp"
)

func main() {
	prog, err := mcpart.LoadBenchmark("djpeg")
	if err != nil {
		log.Fatal(err)
	}
	tr, err := cache.Collect(prog.Module(), 20_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("djpeg: traced %d memory accesses over %d objects\n\n",
		len(tr), len(prog.Objects()))

	m := mcpart.Paper2Cluster(5)
	g, err := mcpart.Evaluate(context.Background(), prog, m, mcpart.SchemeGDP, mcpart.Options{})
	if err != nil {
		log.Fatal(err)
	}

	ccfg := cache.Config{SizeBytes: 2048, LineBytes: 32, Assoc: 2, MissPenalty: 20}
	fmt.Printf("per-cluster caches: %d B, %d-way, %d-byte lines, %d-cycle miss\n\n",
		ccfg.SizeBytes, ccfg.Assoc, ccfg.LineBytes, ccfg.MissPenalty)

	show := func(label string, dm gdp.DataMap) {
		r, err := cache.ReplayPartitioned(tr, dm, 2, ccfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s miss rate %5.2f%%  misses/cluster %v  +%d cycles\n",
			label, 100*r.MissRate(), r.Misses, r.ExtraCyc)
	}
	show("GDP", g.DataMap)
	colocated := make(gdp.DataMap, len(g.DataMap))
	show("colocated", colocated)
	rr := make(gdp.DataMap, len(g.DataMap))
	for i := range rr {
		rr[i] = i % 2
	}
	show("round-robin", rr)

	uni, err := cache.ReplayUnified(tr, 2, ccfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-12s miss rate %5.2f%%  (single %d B cache)\n",
		"unified", 100*uni.MissRate(), 2*ccfg.SizeBytes)

	fmt.Println("\nGDP's byte-balanced placement also balances cache pressure — and can")
	fmt.Println("even beat one unified cache of the combined size, because isolating")
	fmt.Println("objects in separate caches removes their conflict misses, while")
	fmt.Println("colocating everything thrashes a single cluster's cache. This is")
	fmt.Println("the behaviour the paper's §5 conjectures data partitioning brings")
	fmt.Println("to cache-based memory systems.")
}
