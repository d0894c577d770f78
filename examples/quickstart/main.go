// Quickstart: compile a small program, partition it for the paper's
// 2-cluster VLIW machine with each scheme, and print the outcome.
package main

import (
	"context"
	"fmt"
	"log"

	"mcpart"
)

const src = `
// A toy image pipeline: brighten into a temp buffer, then threshold.
global int pixels[256];
global int bright[256];
global int mask[256];

func brighten(int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        int v = pixels[i] + 32;
        if (v > 255) { v = 255; }
        bright[i] = v;
    }
}

func threshold(int n, int cut) int {
    int i;
    int count = 0;
    for (i = 0; i < n; i = i + 1) {
        if (bright[i] > cut) { mask[i] = 1; count = count + 1; } else { mask[i] = 0; }
    }
    return count;
}

func main() int {
    int i;
    for (i = 0; i < 256; i = i + 1) { pixels[i] = (i * 37 + 11) % 256; }
    brighten(256);
    return threshold(256, 128);
}`

func main() {
	ctx := context.Background()
	prog, err := mcpart.Compile(ctx, "quickstart", src, mcpart.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s; main() returned %d during profiling\n\n",
		prog.Name(), prog.Checksum())

	fmt.Println("data objects discovered by the compiler:")
	for _, o := range prog.Objects() {
		fmt.Printf("  %-10s %5d bytes, %6d dynamic accesses\n", o.Name, o.Bytes, o.Accesses)
	}

	machine := mcpart.Paper2Cluster(5) // 5-cycle intercluster moves
	cmp, err := mcpart.EvaluateAll(ctx, prog, machine, mcpart.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nscheme results on %s:\n", machine.Name)
	show := func(r *mcpart.Result) {
		rel := 100 * mcpart.RelativePerf(cmp.Unified, r)
		fmt.Printf("  %-11s %8d cycles  %6d moves  %6.1f%% of unified",
			r.Scheme, r.Cycles, r.Moves, rel)
		if r.DataMap != nil {
			fmt.Printf("  homes=%v", r.DataMap)
		}
		fmt.Println()
	}
	show(cmp.Unified)
	show(cmp.GDP)
	show(cmp.PMax)
	show(cmp.Naive)

	fmt.Println("\nGDP's object placement:")
	for _, o := range prog.Objects() {
		fmt.Printf("  %-10s -> cluster %d\n", o.Name, cmp.GDP.DataMap[o.ID])
	}
}
