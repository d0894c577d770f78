package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"time"

	"mcpart/internal/bench"
	"mcpart/internal/eval"
	"mcpart/internal/interp"
	"mcpart/internal/machine"
	"mcpart/internal/mclang"
	"mcpart/internal/obs"
	"mcpart/internal/progen"
)

// The closed-loop workloads: one client, one program at a time, each op
// on fresh in-memory caches (every PrepareOpts builds a new memo), no
// disk cache, one evaluation worker on one processor.
//
// Op cost is the process's CPU time (user + system) across the op, not
// its wall time: the 2-core runner's host steals cycles in bursts, and
// wall time counts the stolen ones. It is read at the reference host
// speed (calib.go). The heap is collected before every op, outside the
// timed region, so one op's garbage is not charged to the next op or
// to the calibration kernel.

var schemes = []eval.Scheme{eval.SchemeUnified, eval.SchemeGDP, eval.SchemeProfileMax, eval.SchemeNaive}

// fig9Objects is the object cap of the paper's Figure 9 sweep.
const fig9Objects = 14

// program is one op's input.
type program struct {
	name   string
	source string
	want   int64 // reference checksum
	sweep  bool  // run the Figure 9 sweep too (paper workload)
}

// opResult is the deterministic output of one op: every scheme's cycles
// and moves per latency, plus the sweep's summary when one ran.
type opResult struct {
	checksum int64
	cycles   map[int][4]int64 // latency → cycles per scheme
	moves    map[int][4]int64
	sweep    [5]int64 // points, best, worst, GDP mask, ProfileMax mask
}

// relPerf lists unified/GDP cycles for each latency, in lats order so
// the geometric mean sums its logarithms in a fixed order.
func (r *opResult) relPerf(lats []int) []float64 {
	var out []float64
	for _, lat := range lats {
		c := r.cycles[lat]
		out = append(out, float64(c[0])/float64(c[1]))
	}
	return out
}

func (r *opResult) equal(o *opResult) bool {
	if r.checksum != o.checksum || r.sweep != o.sweep || len(r.cycles) != len(o.cycles) {
		return false
	}
	for lat, c := range r.cycles {
		if o.cycles[lat] != c || o.moves[lat] != r.moves[lat] {
			return false
		}
	}
	return true
}

// runOp compiles p and runs the four schemes, validated, on paper2 at
// each latency; the Figure 9 sweep follows when p asks for it, its wall
// time added to sweep (the sweep has no span of its own). A wrong
// checksum, a validator rejection or an inconsistent sweep is an error.
func runOp(ctx context.Context, p program, lats []int, o *obs.Observer, sweep *time.Duration) (*opResult, error) {
	c, err := eval.PrepareOpts(ctx, p.name, p.source, eval.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	if c.Ret != p.want {
		return nil, fmt.Errorf("%s: checksum %d, reference %d", p.name, c.Ret, p.want)
	}
	r := &opResult{checksum: c.Ret, cycles: map[int][4]int64{}, moves: map[int][4]int64{}}
	opts := eval.Options{Workers: 1, Validate: true, Observer: o}
	for _, lat := range lats {
		cfg := machine.Paper2Cluster(lat)
		var cyc, mov [4]int64
		for i, s := range schemes {
			res, err := eval.RunSchemeCtx(ctx, c, cfg, s, opts)
			if err != nil {
				return nil, fmt.Errorf("%s %s lat %d: %w", p.name, s, lat, err)
			}
			cyc[i], mov[i] = res.Cycles, res.Moves
		}
		r.cycles[lat], r.moves[lat] = cyc, mov
	}
	if p.sweep {
		t := time.Now()
		ex, err := eval.ExhaustiveCtx(ctx, c, machine.Paper2Cluster(5), eval.Options{Workers: 1, Observer: o}, fig9Objects)
		*sweep += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s sweep: %w", p.name, err)
		}
		if err := checkSweep(ex); err != nil {
			return nil, fmt.Errorf("%s sweep: %w", p.name, err)
		}
		r.sweep = [5]int64{int64(len(ex.Points)), ex.Best, ex.Worst, int64(ex.GDPMask), int64(ex.PMaxMask)}
	}
	return r, nil
}

// checkSweep checks the sweep's internal consistency: every mask present
// once, Best and Worst the extremes of the points, and the scheme marks
// inside the space.
func checkSweep(ex *eval.ExhaustiveResult) error {
	if len(ex.Points) == 0 {
		return fmt.Errorf("no points")
	}
	lo, hi := ex.Points[0].Cycles, ex.Points[0].Cycles
	for i, pt := range ex.Points {
		if pt.Mask != uint64(i) {
			return fmt.Errorf("point %d has mask %d", i, pt.Mask)
		}
		lo, hi = min(lo, pt.Cycles), max(hi, pt.Cycles)
	}
	if lo != ex.Best || hi != ex.Worst {
		return fmt.Errorf("best/worst %d/%d, points span %d..%d", ex.Best, ex.Worst, lo, hi)
	}
	if ex.Find(ex.GDPMask) == nil || ex.Find(ex.PMaxMask) == nil {
		return fmt.Errorf("scheme mask outside the space")
	}
	return nil
}

// paperOrder is one pass's visiting order of the bundled suite, shuffled
// by the seed and the pass number.
func paperOrder(seed int64, pass int) []bench.Benchmark {
	bs := bench.All()
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	return bs
}

func paperProgram(b bench.Benchmark) program {
	return program{name: b.Name, source: b.Source, want: b.Want, sweep: b.Exhaustive}
}

// novelStream yields the seed's generated programs in order; each call
// to next returns the following one.
type novelStream struct {
	seed int64
	rng  *rand.Rand
	i    int
}

func newNovelStream(seed int64) *novelStream {
	return &novelStream{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (s *novelStream) next() program {
	name := fmt.Sprintf("gen%d_%d", s.seed, s.i)
	s.i++
	return program{name: name, source: progen.Generate(s.rng.Int63(), progen.Options{})}
}

// reference runs the unoptimized, un-unrolled program on the
// tree-walking interpreter, independent of the bytecode VM, the
// optimizer and the unroller that the timed op uses.
func reference(p *program) error {
	mod, err := mclang.Compile(p.source, p.name)
	if err != nil {
		return fmt.Errorf("%s: reference compile: %w", p.name, err)
	}
	v, err := interp.New(mod, interp.Options{}).RunMain()
	if err != nil {
		return fmt.Errorf("%s: reference run: %w", p.name, err)
	}
	p.want = v.I
	return nil
}

// closedWork is a closed-loop workload: what one op evaluates and where
// its programs come from.
type closedWork struct {
	lats []int
	// qualityOps is the fixed op sample gdp_rel_perf is taken over; every
	// phase runs at least that many ops, so the figure depends only on
	// the seed.
	qualityOps int
	// chunk is the op count throughput is measured over; 0 means the
	// programs repeat every pass, and each program's cost is then its
	// median over the passes.
	chunk int
	// next returns the following op's program and whether the loop may
	// stop after it (the paper workload stops only between passes).
	next func() (program, bool)
	// needRef computes each program's reference checksum with the
	// tree-walking interpreter, outside the timed region.
	needRef bool
}

// phase is one measured stretch of ops.
type phase struct {
	refMS []float64 // reference CPU time per completed op
	names []string  // program per completed op
	calMS []float64 // calibration kernel time per completed op
	rssMB []float64 // peak resident set size during each completed op
	busy  time.Duration
	cpu   time.Duration
	ops   int       // attempted, including programs whose reference failed
	rel   []float64 // unified/GDP cycles of the first qualityOps ops
	sweep time.Duration
	fails []string
}

func (p *phase) opsPerSec() float64 { return ratio(float64(len(p.refMS)), total(p.refMS)/1000) }

// cost returns ops per reference CPU second and the per-op reference CPU
// times its percentiles are read from, with bursts of interference
// filtered out. Programs that repeat every pass (chunk 0) count at their
// median over the passes, and throughput is the suite's size over the
// sum of those medians. Otherwise throughput is the median over
// consecutive chunks of ops.
func (p *phase) cost(chunk int) (float64, []float64) {
	if chunk == 0 {
		by := map[string][]float64{}
		var order []string
		for i, n := range p.names {
			if by[n] == nil {
				order = append(order, n)
			}
			by[n] = append(by[n], p.refMS[i])
		}
		var opMS []float64
		for _, n := range order {
			opMS = append(opMS, median(by[n]))
		}
		return ratio(float64(len(opMS)), total(opMS)/1000), opMS
	}
	var rates []float64
	for i := 0; i+chunk <= len(p.refMS); i += chunk {
		rates = append(rates, ratio(float64(chunk), total(p.refMS[i:i+chunk])/1000))
	}
	if len(rates) == 0 {
		return p.opsPerSec(), p.refMS
	}
	return median(rates), p.refMS
}

// run executes ops until at least seconds of op time have passed (and
// qualityOps ops have run), checking every output. Results of a program
// seen before must equal the first ones (seen, shared across phases).
func (w *closedWork) run(ctx context.Context, seconds float64, o *obs.Observer, seen map[string]*opResult) *phase {
	ph := &phase{}
	budget := time.Duration(seconds * float64(time.Second))
	for {
		p, canStop := w.next()
		if w.needRef {
			if err := reference(&p); err != nil {
				ph.ops++
				ph.fails = append(ph.fails, err.Error())
				continue
			}
		}
		ph.ops++
		runtime.GC()
		cal := ms(calibrate())
		runtime.GC()
		rssErr := resetPeakRSS()
		c := cpuTime()
		t := time.Now()
		r, err := runOp(ctx, p, w.lats, o, &ph.sweep)
		d, dc := time.Since(t), cpuTime()-c
		rss, readErr := peakRSSMB()
		if err == nil {
			err = errors.Join(rssErr, readErr)
		}
		ph.rssMB = append(ph.rssMB, rss)
		ph.busy += d
		ph.cpu += dc
		ph.refMS = append(ph.refMS, ms(dc)*calRefMS/cal)
		ph.calMS = append(ph.calMS, cal)
		ph.names = append(ph.names, p.name)
		switch first, ok := seen[p.name]; {
		case err != nil:
			ph.fails = append(ph.fails, err.Error())
		case ok && !r.equal(first):
			ph.fails = append(ph.fails, p.name+": results differ from an earlier op on the same program")
		case !ok:
			seen[p.name] = r
		}
		if err == nil && len(ph.refMS) <= w.qualityOps {
			ph.rel = append(ph.rel, r.relPerf(w.lats)...)
		}
		if canStop && ph.busy >= budget && len(ph.refMS) >= w.qualityOps {
			return ph
		}
	}
}

// warmup is the set-up op: the first bundled program in this workload's
// op shape, run once before timing so lazy initialisation and heap
// growth are paid outside the measured ops.
func (w *closedWork) warmup(ctx context.Context) error {
	p := paperProgram(bench.All()[0])
	p.sweep = p.sweep && len(w.lats) > 1
	var sweep time.Duration
	_, err := runOp(ctx, p, w.lats, nil, &sweep)
	return err
}

func paperWork(seed int64) *closedWork {
	pass, i := 0, 0
	order := paperOrder(seed, pass)
	return &closedWork{
		lats:       []int{1, 5, 10},
		qualityOps: len(order),
		next: func() (program, bool) {
			if i == len(order) {
				pass, i = pass+1, 0
				order = paperOrder(seed, pass)
			}
			i++
			return paperProgram(order[i-1]), i == len(order)
		},
	}
}

// novelQualityOps is the number of generated programs gdp_rel_perf is
// taken over on the novel workload.
const novelQualityOps = 400

func novelWork(seed int64) *closedWork {
	s := newNovelStream(seed)
	return &closedWork{
		lats:       []int{5},
		qualityOps: novelQualityOps,
		chunk:      50,
		next:       func() (program, bool) { return s.next(), true },
		needRef:    true,
	}
}

func runPaper(cfg config) (*outcome, error) { return runClosed(cfg, paperWork(cfg.seed)) }
func runNovel(cfg config) (*outcome, error) { return runClosed(cfg, novelWork(cfg.seed)) }

// setupRuns is how many fresh processes set-up time is measured in.
const setupRuns = 5

func runClosed(cfg config, w *closedWork) (*outcome, error) {
	runtime.GOMAXPROCS(1)
	var setup float64
	if !cfg.trace {
		var err error
		if setup, err = measureSetup(cfg); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	if err := w.warmup(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	seen := map[string]*opResult{}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2 // the untraced and the traced phase share the run
	}
	plain := w.run(ctx, seconds, nil, seen)
	out := &outcome{attempted: plain.ops, failed: len(plain.fails), mismatches: plain.fails, metrics: metrics{}}
	m := out.metrics
	if !cfg.trace {
		m.set("setup_s", setup)
		m.set("peak_rss_mb_p90", quantile(plain.rssMB, 0.90))
		m.set("ok_pct", 100*float64(out.attempted-out.failed)/float64(out.attempted))
		rate, opMS := plain.cost(w.chunk)
		m.set("ops_per_ref_s", rate)
		m.set("op_ref_ms_p50", quantile(opMS, 0.50))
		m.set("op_ref_ms_p90", quantile(opMS, 0.90))
		m.set("gdp_rel_perf", geomean(plain.rel))
		fmt.Fprintf(os.Stderr, "%s: %d ops in %.2fs wall, %.2fs CPU, %.2fs reference CPU; calibration kernel median %.3f ms\n",
			cfg.workload, out.attempted, plain.busy.Seconds(), plain.cpu.Seconds(), total(plain.refMS)/1000, median(plain.calMS))
		return out, nil
	}

	// Traced phase: the same loop with wall-clock spans, the counter
	// registry and a CPU profile attached.
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	o := obs.New(reg, tr, obs.WallClock())
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced := w.run(obs.With(ctx, o), seconds, o, seen)
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	self, err := selfTimes(tr)
	if err != nil {
		return nil, err
	}
	out.attempted += traced.ops
	out.failed += len(traced.fails)
	out.mismatches = append(out.mismatches, traced.fails...)
	layerInputs{ops: len(traced.refMS), self: self, counters: reg.Snapshot(), shares: shares, sweep: traced.sweep}.metrics(m)
	u, t := plain.opsPerSec(), traced.opsPerSec()
	m.set("trace.overhead_pct", 100*ratio(u-t, u))
	return out, nil
}

// measureSetup starts setupRuns fresh copies of this binary in probe
// mode and returns the median of the reference CPU time each spends from
// start to the end of its warm-up op.
func measureSetup(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed), "--setup-probe")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var setupMS, cal float64
		if err == nil {
			_, err = fmt.Sscanf(string(out), "ready %g %g\n", &setupMS, &cal)
		}
		if err != nil || cal <= 0 {
			return 0, fmt.Errorf("setup probe: %v %q", err, out)
		}
		ds = append(ds, setupMS*calRefMS/cal/1000)
	}
	return median(ds), nil
}

// setupProbe is the child side of measureSetup: it reports its CPU time
// up to the end of the warm-up op, then the calibration kernel's time.
func setupProbe(cfg config) error {
	runtime.GOMAXPROCS(1)
	w := paperWork(cfg.seed)
	if cfg.workload == "novel" {
		w = novelWork(cfg.seed)
	}
	if err := w.warmup(context.Background()); err != nil {
		return err
	}
	setup := cpuTime()
	runtime.GC()
	fmt.Println("ready", ms(setup), ms(calibrate()))
	return nil
}
