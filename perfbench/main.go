// Command perfbench is the repository benchmark: one command that runs a
// named workload against the mcpart pipeline from outside, checks every
// output against an independent reference, and prints its metrics by
// name and unit as the last line of standard output.
//
//	perfbench --workload paper|novel|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer split, read from the pipeline's own wall-clock spans and
// counters and from a CPU profile. BENCHMARK.json at the repository root
// declares every metric and why each workload exists; run.sh builds this
// package and the gdpd daemon from source and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one printed metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by the
// declared workloads (paper, novel) with --trace 0. Times are CPU time
// at the reference host speed (closed.go and calib.go say why).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb_p90", "MB"},
	{"ok_pct", "%"},
	{"ops_per_ref_s", "1/s"},
	{"op_ref_ms_p50", "ms"},
	{"op_ref_ms_p90", "ms"},
	{"gdp_rel_perf", "ratio"},
}

// serviceEndToEnd are the service workload's end-to-end metrics, timed
// by the wall clock from outside the daemon.
var serviceEndToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_pct", "%"},
	{"ops_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"latency_ms_p99", "ms"},
	{"max_rate_rps", "1/s"},
	{"gdp_rel_perf", "ratio"},
}

// perLayer are the traced run's metrics, printed by every workload with
// --trace 1; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"mclang.ms", "ms/op"},
	{"opt.ms", "ms/op"},
	{"pointsto.ms", "ms/op"},
	{"bytecode.ms", "ms/op"},
	{"bytecode.steps", "count/op"},
	{"rhop.ms", "ms/op"},
	{"rhop.cost_evals", "count/op"},
	{"rhop.kway_runs", "count/op"},
	{"partition.cpu_pct", "%"},
	{"partition.bisections", "count/op"},
	{"partition.tiny_bisections", "count/op"},
	{"partition.fm_moves", "count/op"},
	{"gdp.ms", "ms/op"},
	{"gdp.cut_weight", "count/op"},
	{"eval.scheme_self_ms", "ms/op"},
	{"sched.ms", "ms/op"},
	{"check.ms", "ms/op"},
	{"eval.sweep_ms", "ms/op"},
	{"eval.sweep_masks", "count/op"},
	{"memo.hit_ratio", "ratio"},
	{"memo.misses", "count/op"},
	{"memo.evictions", "count/op"},
	{"trace.overhead_pct", "%"},
}

// serviceLayers are the per-layer metrics only the service workload
// exercises: the artifact store, the session cache, the daemon's
// admission path and the load generator. The service workload is not in
// BENCHMARK.json (see the README), so with --trace 1 it prints these to
// standard error.
var serviceLayers = []metricDef{
	{"eval.bb_nodes_visited", "count/op"},
	{"store.hit_ratio", "ratio"},
	{"store.writes", "count"},
	{"store.bytes", "bytes"},
	{"store.cpu_pct", "%"},
	{"mcpart.session_hit_ratio", "ratio"},
	{"mcpart.session_evictions", "count"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.elapsed_ms_p50", "ms"},
	{"serve.wire_ms_p50", "ms"},
	{"serve.shed", "count"},
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.backlog_max", "count"},
}

// metrics collects one run's values; metrics not set print as 0.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	gdpd     string // daemon binary (service workload)
	workDir  string // scratch space inside the checkout
	probe    bool   // child mode: set up, report readiness, exit
}

// outcome is a workload's result before printing.
type outcome struct {
	attempted, failed int
	mismatches        []string // correctness failures, for stderr
	metrics           metrics
}

var workloads = map[string]func(config) (*outcome, error){
	"paper":   runPaper,
	"novel":   runNovel,
	"service": runService,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "paper | novel | service")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measuring time per phase")
	flag.IntVar(&trace, "trace", 0, "1: print the per-layer split instead of the end-to-end metrics")
	flag.StringVar(&cfg.gdpd, "gdpd", "", "gdpd binary for the service workload")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/run", "scratch directory (daemon caches)")
	flag.BoolVar(&cfg.probe, "setup-probe", false, "internal: measure set-up in a fresh process")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper|novel|service, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	if cfg.probe {
		if err := setupProbe(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			os.Exit(1)
		}
		return
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, msg := range out.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", msg)
	}
	line, err := render(out, printed(cfg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.trace && cfg.workload == "service" {
		for _, d := range serviceLayers {
			fmt.Fprintf(os.Stderr, "%s %g %s\n", d.name, out.metrics[d.name], d.unit)
		}
	}
	fmt.Println(line)
	if out.failed > 0 || len(out.mismatches) > 0 {
		os.Exit(1)
	}
}

// printed is the metric set a run prints.
func printed(cfg config) []metricDef {
	switch {
	case cfg.trace:
		return perLayer
	case cfg.workload == "service":
		return serviceEndToEnd
	}
	return endToEnd
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func render(out *outcome, defs []metricDef) (string, error) {
	if out.attempted < 1 {
		return "", errors.New("no op attempted")
	}
	r := result{
		Correct:   out.failed == 0 && len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(r)
	return string(b), err
}

// cpuTime is the CPU time this process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's count of this process's peak
// resident set size (VmHWM).
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is this process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
