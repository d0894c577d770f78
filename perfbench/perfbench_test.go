package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// inputs serializes what a workload feeds the program for a seed: the
// paper pass order, the novel workload's generated sources, the service
// workload's first rungs (arrival times and request bodies).
func inputs(workload string, seed int64) []byte {
	var b bytes.Buffer
	switch workload {
	case "paper":
		for pass := 0; pass < 3; pass++ {
			for _, bm := range paperOrder(seed, pass) {
				fmt.Fprintln(&b, bm.Name)
			}
		}
	case "novel":
		s := newNovelStream(seed)
		for i := 0; i < 20; i++ {
			p := s.next()
			fmt.Fprintln(&b, p.name, p.source)
		}
	case "service":
		pool := newServicePool()
		for i, rate := range []float64{refRate, refRate * ladderStep} {
			m := newMix(pool, seed, i)
			for _, p := range m.schedule(rate, 2*time.Second) {
				fmt.Fprintln(&b, p.due, p.c.key)
			}
		}
	}
	return b.Bytes()
}

func TestInputsFollowSeed(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		a, again, other := inputs(w, 5), inputs(w, 5), inputs(w, 6)
		if len(a) == 0 {
			t.Fatalf("%s: no inputs", w)
		}
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 5 gave different inputs on two calls", w)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 5 and 6 gave identical inputs", w)
		}
	}
}

// benchmarkDoc is the part of BENCHMARK.json the metric tables mirror.
type benchmarkDoc struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestDeclaredMetricsMatch(t *testing.T) {
	doc := readDoc(t)
	var e2e, layers []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, printed %v", e2e, endToEnd)
	}
	if fmt.Sprint(layers) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, printed %v", layers, perLayer)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("BENCHMARK.json declares workload %q, which is not implemented", n)
		}
	}
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// binaries builds this benchmark and gdpd once per test process.
func binaries(t *testing.T) (bench, gdpd string) {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "perfbench-test")
		if buildErr != nil {
			return
		}
		for _, args := range [][]string{
			{"build", "-o", filepath.Join(binDir, "perfbench"), "."},
			{"build", "-o", filepath.Join(binDir, "gdpd"), "mcpart/cmd/gdpd"},
		} {
			if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("go %v: %v\n%s", args, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, "perfbench"), filepath.Join(binDir, "gdpd")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// TestSmoke runs every workload briefly through the real command line and
// checks the printed result line against the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	bin, gdpd := binaries(t)
	for _, tc := range []struct {
		workload string
		trace    int
	}{{"paper", 0}, {"novel", 0}, {"service", 0}, {"paper", 1}, {"service", 1}} {
		t.Run(fmt.Sprintf("%s/trace%d", tc.workload, tc.trace), func(t *testing.T) {
			cmd := exec.Command(bin, "--workload", tc.workload, "--seed", "3", "--seconds", "1",
				"--trace", fmt.Sprint(tc.trace), "--gdpd", gdpd, "--workdir", t.TempDir())
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d\n%s", r.Correct, r.Attempted, r.Failed, stderr.String())
			}
			defs := printed(config{workload: tc.workload, trace: tc.trace == 1})
			if len(r.Metrics) != len(defs) {
				t.Errorf("printed %d metrics, declared %d", len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("metric %s missing", d.name)
				case v.Unit != d.unit:
					t.Errorf("metric %s unit %q, declared %q", d.name, v.Unit, d.unit)
				case tc.trace == 0 && v.Value <= 0:
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
				}
			}
		})
	}
}

func TestBadArgumentsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark")
	}
	bin, _ := binaries(t)
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper", "--trace", "2"},
		{"--workload", "service", "--seconds", "1"}, // no daemon binary
	} {
		out, err := exec.Command(bin, args...).Output()
		if err == nil {
			t.Errorf("%v: exit 0", args)
		}
		if len(out) != 0 {
			t.Errorf("%v: printed %q", args, out)
		}
	}
}

func TestPhaseCost(t *testing.T) {
	// Two passes over programs a and b: each counts at its median over
	// the passes, so one slow op does not move the suite's figure.
	p := &phase{names: []string{"a", "b", "a", "b", "a", "b"}, refMS: []float64{100, 300, 900, 200, 110, 250}}
	rate, opMS := p.cost(0)
	if fmt.Sprint(opMS) != "[110 250]" || rate != 2/0.36 {
		t.Errorf("repeating programs: rate %v, op times %v", rate, opMS)
	}
	// Chunks of two ops: the median chunk rate, and every op's time.
	p = &phase{refMS: []float64{100, 100, 1000, 1000, 200, 200}}
	rate, opMS = p.cost(2)
	if len(opMS) != 6 || rate != 5 {
		t.Errorf("chunks: rate %v, op times %v", rate, opMS)
	}
}

func TestPackageShares(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += len(fmt.Sprint(x))
	}
	shares, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if len(shares) == 0 || total < 0.999 || total > 1.001 {
		t.Errorf("shares %v sum to %v, want 1", shares, total)
	}
	if got := packageOf("mcpart/internal/partition.(*fm).run"); got != "mcpart/internal/partition" {
		t.Errorf("packageOf = %q", got)
	}
}

// sortedKeys returns m's keys in order (deterministic diagnostics).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
