package sched

import (
	"fmt"

	"mcpart/internal/ir"
	"mcpart/internal/machine"
)

// CheckBlock re-runs the list scheduler on block b and independently
// verifies the produced schedule against every constraint the machine
// imposes:
//
//   - per-cycle, per-cluster function-unit usage within the unit counts;
//   - per-cycle intercluster bus usage within the move bandwidth;
//   - every dependence edge's latency respected (consumer issues no
//     earlier than producer start + edge latency).
//
// It returns nil for a valid schedule; the test suite runs it over every
// benchmark block under every scheme as a scheduler self-check.
func CheckBlock(b *ir.Block, asg []int, home []int, lc *LoopCtx, cfg *machine.Config) error {
	sc := NewScratch()
	sc.buildNodes(b, asg, home, lc, cfg)
	nodes := sc.nodes
	if len(nodes) == 0 {
		return nil
	}
	length := sc.listSchedule(cfg)

	// Resource and bus usage.
	type slotKey struct {
		cycle, cluster int
		kind           ir.FUKind
	}
	usage := map[slotKey]int{}
	bus := map[int]int{}
	for i, n := range nodes {
		if n.start < 0 || n.start+n.lat > length {
			return fmt.Errorf("sched: b%d node %d at cycle %d (lat %d) outside length %d",
				b.ID, i, n.start, n.lat, length)
		}
		k := slotKey{n.start, n.cluster, n.kind}
		usage[k]++
		if usage[k] > cfg.Units(n.cluster, n.kind) {
			return fmt.Errorf("sched: b%d cycle %d cluster %d oversubscribes %s units (%d > %d)",
				b.ID, n.start, n.cluster, n.kind, usage[k], cfg.Units(n.cluster, n.kind))
		}
		if n.isMove {
			bus[n.start]++
			if bus[n.start] > cfg.MoveBandwidth {
				return fmt.Errorf("sched: b%d cycle %d oversubscribes the bus (%d > %d)",
					b.ID, n.start, bus[n.start], cfg.MoveBandwidth)
			}
		}
	}

	// Dependence latencies.
	for i, n := range nodes {
		for _, p := range n.preds {
			if n.start < nodes[p.from].start+p.lat {
				return fmt.Errorf("sched: b%d node %d at %d violates dep from node %d at %d (+%d)",
					b.ID, i, n.start, p.from, nodes[p.from].start, p.lat)
			}
		}
	}
	return nil
}

// CheckFunc runs CheckBlock over every block of f under asg.
func CheckFunc(f *ir.Func, asg []int, cfg *machine.Config) error {
	home := HomeClusters(f, asg, cfg.NumClusters())
	lc := NewLoopCtx(f)
	for _, b := range f.Blocks {
		if err := CheckBlock(b, asg, home, lc, cfg); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	return nil
}
