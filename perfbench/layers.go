package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"mcpart/internal/obs"
)

// Per-layer numbers come only from signals the program already has: its
// obs spans read with a wall clock, its obs counters, and a CPU profile
// of this process. Nothing here adds tracing inside the program.

// spanLayer maps one span path to the layer its self time belongs to.
// The paths are the pipeline's own (DESIGN.md §10): prepare/<prog> with
// parse, pointsto and profile children; <scheme> with data, partition,
// sched and validate children, also nested under exhaustive/<prog> and
// best/<prog>.
func spanLayer(path string) string {
	segs := strings.Split(path, "/")
	last := segs[len(segs)-1]
	if segs[0] == "prepare" {
		switch {
		case len(segs) == 2:
			return "opt" // prepare's self time: the IR optimizer and cache lookups
		case last == "parse":
			return "mclang"
		case last == "pointsto":
			return "pointsto"
		case last == "profile":
			return "bytecode"
		}
		return "other"
	}
	switch last {
	case "data":
		return "gdp"
	case "partition":
		return "rhop"
	case "sched":
		return "sched"
	case "validate":
		return "check"
	case "Unified", "GDP", "ProfileMax", "Naive", "Fixed":
		return "scheme"
	}
	return "other"
}

// selfTimes folds a wall-clock trace into per-layer self time: each
// span's duration minus the durations of its direct children. The
// benchmark runs one evaluation worker, so children never overlap.
func selfTimes(tr *obs.Trace) (map[string]time.Duration, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	total := map[string]int64{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		total[e.Span] += e.End - e.Start
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	self := make(map[string]int64, len(total))
	for path, d := range total {
		self[path] += d
		if i := strings.LastIndex(path, "/"); i >= 0 {
			if _, ok := total[path[:i]]; ok {
				self[path[:i]] -= d
			}
		}
	}
	out := map[string]time.Duration{}
	for path, d := range self {
		out[spanLayer(path)] += time.Duration(d)
	}
	return out, nil
}

// cpuProfile samples this process's CPU use from start until stop is
// called, then folds the samples by mcpart package.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return packageShares(p.buf.Bytes(), "mcpart/")
}

// layerMetrics assembles the per-layer metric set of a traced phase.
// Times and counts are per op, so runs of different lengths compare.
type layerInputs struct {
	ops      int
	self     map[string]time.Duration
	counters obs.Snapshot
	shares   map[string]float64
	sweep    time.Duration
}

func (in layerInputs) metrics(m metrics) {
	n := float64(max(in.ops, 1))
	perOpMS := func(layer string) float64 { return ms(in.self[layer]) / n }
	perOp := func(counter string) float64 { return float64(in.counters.Value(counter)) / n }
	m.set("mclang.ms", perOpMS("mclang"))
	m.set("opt.ms", perOpMS("opt"))
	m.set("pointsto.ms", perOpMS("pointsto"))
	m.set("bytecode.ms", perOpMS("bytecode"))
	m.set("bytecode.steps", perOp("interp_steps"))
	m.set("rhop.ms", perOpMS("rhop"))
	m.set("rhop.cost_evals", perOp("rhop_cost_evals"))
	m.set("rhop.kway_runs", perOp("rhop_kway_runs"))
	m.set("partition.cpu_pct", 100*in.shares["mcpart/internal/partition"])
	m.set("partition.bisections", perOp("fm_bisections"))
	m.set("partition.tiny_bisections", perOp("fm_tiny_bisections"))
	m.set("partition.fm_moves", perOp("fm_moves"))
	m.set("gdp.ms", perOpMS("gdp"))
	m.set("gdp.cut_weight", perOp("gdp_cut_weight"))
	m.set("eval.scheme_self_ms", perOpMS("scheme"))
	m.set("sched.ms", perOpMS("sched"))
	m.set("check.ms", perOpMS("check"))
	m.set("eval.sweep_ms", ms(in.sweep)/n)
	m.set("eval.sweep_masks", perOp("eval_masks"))
	m.set("eval.bb_nodes_visited", perOp("bb_nodes_visited"))
	hits, misses := in.counters.Value("memo_hits"), in.counters.Value("memo_misses")
	m.set("memo.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	m.set("memo.misses", perOp("memo_misses"))
	m.set("memo.evictions", perOp("memo_evictions"))
	m.set("store.cpu_pct", 100*in.shares["mcpart/internal/store"])
}
