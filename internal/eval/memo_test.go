package eval

import (
	"reflect"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/machine"
)

// TestMemoEquivalenceAllSchemes pins the tentpole determinism contract:
// every scheme returns reflect.DeepEqual-identical deterministic fields
// with the memoization cache enabled (default) and disabled (noMemo) —
// on every bundled benchmark at 1-, 5- and 10-cycle move latency plus the
// heterogeneous machine, all evaluated on one shared Compiled. The memoized
// runs go first, so later latencies and schemes start from a cache warmed
// by the earlier ones: that cross-latency, cross-scheme reuse is where the
// content-addressed min-cut memo ("kway") earns its hits. -short and
// -race keep one benchmark: the runs are serial, so the race detector has
// nothing to add to the other twenty.
func TestMemoEquivalenceAllSchemes(t *testing.T) {
	names := bench.Names()
	if testing.Short() || raceEnabled {
		names = []string{"rawcaudio"}
	}
	cfgs := []*machine.Config{machine.Paper2Cluster(1), machine.Paper2Cluster(5),
		machine.Paper2Cluster(10), machine.Heterogeneous2(5)}
	for _, name := range names {
		c := prepBench(t, name)
		memoed := make([]*BenchResult, len(cfgs))
		for i, cfg := range cfgs {
			br, err := RunAllSchemes(c, cfg, Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg.Name, err)
			}
			memoed[i] = br
		}
		for i, cfg := range cfgs {
			plain, err := RunAllSchemes(c, cfg, Options{noMemo: true})
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg.Name, err)
			}
			pairs := []struct {
				scheme   string
				mem, raw *Result
			}{
				{"unified", memoed[i].Unified, plain.Unified},
				{"gdp", memoed[i].GDP, plain.GDP},
				{"pmax", memoed[i].PMax, plain.PMax},
				{"naive", memoed[i].Naive, plain.Naive},
			}
			for _, p := range pairs {
				if !reflect.DeepEqual(detFields(p.mem), detFields(p.raw)) {
					t.Errorf("%s %s %s: memoized result differs from cache-off run", name, cfg.Name, p.scheme)
				}
			}
		}
	}
}

// TestKWayMemoIsNotCorruptedByRemap pins the read-only contract of shared
// min-cut results: the 4-cluster bus, ring and NUMA presets at one latency
// all hand GDP's object graph to the partitioner with the same content key
// where their memory shares agree, and GDP relabels the result onto the
// topology afterwards. Interleaving them twice on one Compiled must give,
// run for run, what a cache-off evaluation gives — a relabeling written
// back into the shared partition would leak into the next machine's run.
func TestKWayMemoIsNotCorruptedByRemap(t *testing.T) {
	c := prepBench(t, "rawcaudio")
	cfgs := []*machine.Config{machine.RingFour(5), machine.NUMA4(5), machine.FourCluster(5)}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := RunGDP(c, cfg, Options{Workers: 1, noMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for round := 0; round < 2; round++ {
		for i, cfg := range cfgs {
			got, err := RunGDP(c, cfg, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(detFields(got), detFields(want[i])) {
				t.Errorf("round %d %s: memoized GDP differs from cache-off run", round, cfg.Name)
			}
		}
	}
}

// TestMemoHitsAccounting pins the §4.5 accounting split: DetailedRuns
// counts logical partitioner runs regardless of caching, while the
// unlocked first pass shared by Unified, ProfileMax and Naïve hits the
// cache after its first computation.
func TestMemoHitsAccounting(t *testing.T) {
	c := prepBench(t, "fir") // fresh Compiled: cold cache
	cfg := machine.Paper2Cluster(5)
	opts := Options{Workers: 1}
	nf := len(c.Mod.Funcs)

	uni, err := RunUnified(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if uni.DetailedRuns != 1 || uni.MemoPartitionHits != 0 {
		t.Errorf("cold Unified: runs=%d hits=%d, want 1 logical run with 0 hits",
			uni.DetailedRuns, uni.MemoPartitionHits)
	}
	pm, err := RunProfileMax(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pm.DetailedRuns != 2 {
		t.Errorf("ProfileMax logical runs = %d, want 2 (§4.5)", pm.DetailedRuns)
	}
	if pm.MemoPartitionHits < nf {
		t.Errorf("ProfileMax partition hits = %d, want >= %d (unlocked pass cached by Unified)",
			pm.MemoPartitionHits, nf)
	}
	nv, err := RunNaive(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nv.DetailedRuns != 1 {
		t.Errorf("Naive logical runs = %d, want 1", nv.DetailedRuns)
	}
	if nv.MemoPartitionHits != nf {
		t.Errorf("Naive partition hits = %d, want %d (its only pass is the cached unlocked one)",
			nv.MemoPartitionHits, nf)
	}
	// A second Unified run is now fully cached, partition and schedule.
	uni2, err := RunUnified(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if uni2.MemoPartitionHits != nf || uni2.MemoScheduleHits != nf {
		t.Errorf("warm Unified hits = %d/%d, want %d/%d",
			uni2.MemoPartitionHits, uni2.MemoScheduleHits, nf, nf)
	}
	if uni2.Cycles != uni.Cycles || uni2.Moves != uni.Moves {
		t.Errorf("warm Unified cycles/moves (%d,%d) differ from cold (%d,%d)",
			uni2.Cycles, uni2.Moves, uni.Cycles, uni.Moves)
	}

	st := c.MemoStats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Errorf("cache stats look dead: %+v", st)
	}
	// noMemo runs must bypass the cache entirely.
	if _, err := RunUnified(c, cfg, Options{Workers: 1, noMemo: true}); err != nil {
		t.Fatal(err)
	}
	if after := c.MemoStats(); after != st {
		t.Errorf("noMemo run touched the cache: %+v -> %+v", st, after)
	}
}

// TestMemoCacheIsNotCorruptedByNaive pins the copy-on-hit contract:
// RunNaive mutates its assignment in place after the unlocked pass, so a
// subsequent Unified run served from the cache must still see the
// pristine unlocked partition.
func TestMemoCacheIsNotCorruptedByNaive(t *testing.T) {
	c := prepBench(t, "fir")
	cfg := machine.Paper2Cluster(5)
	opts := Options{Workers: 1}
	before, err := RunUnified(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunNaive(c, cfg, opts); err != nil {
		t.Fatal(err)
	}
	after, err := RunUnified(c, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(detFields(before), detFields(after)) {
		t.Error("Naive's in-place re-homing leaked into the cached unlocked partition")
	}
}

// TestHandBuiltCompiledHasNoCache pins the nil-cache passthrough: a
// Compiled built without Prepare evaluates correctly with no memoization.
func TestHandBuiltCompiledHasNoCache(t *testing.T) {
	p := prepBench(t, "fir")
	bare := &Compiled{Name: p.Name, Mod: p.Mod, Prof: p.Prof, Ret: p.Ret}
	cfg := machine.Paper2Cluster(5)
	r, err := RunUnified(bare, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.MemoPartitionHits != 0 || r.MemoScheduleHits != 0 {
		t.Error("nil cache must never report hits")
	}
	if s := bare.MemoStats(); s.Hits != 0 && s.Misses != 0 {
		t.Errorf("nil cache stats = %+v, want zero", s)
	}
	want, err := RunUnified(p, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != want.Cycles || r.Moves != want.Moves {
		t.Errorf("bare Compiled cycles (%d,%d) differ from prepared (%d,%d)",
			r.Cycles, r.Moves, want.Cycles, want.Moves)
	}
}
