package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mcpart"
	"mcpart/internal/bench"
	"mcpart/internal/obs"
	"mcpart/internal/serve"
)

// oracle recomputes service results serially through the mcpart facade
// in this process and renders them in the wire format. A checking oracle
// also verifies each program's checksum against an independent
// reference — the bundled program's pinned checksum, or the tree-walking
// interpreter for a generated source — and runs the independent
// validator (Request.Validate) over every result; a replaying one does
// exactly the daemon's work.
type oracle struct {
	sess     *mcpart.Session
	ctx      context.Context
	checking bool
	want     map[string][]byte // case key → result bytes
	sweep    time.Duration     // time inside Sweep and Best calls
}

func newOracle(ctx context.Context, opts mcpart.SessionOptions, checking bool) *oracle {
	return &oracle{sess: mcpart.NewSession(opts), ctx: ctx, checking: checking, want: map[string][]byte{}}
}

// resultOf computes the wire `result` bytes of one request.
func (o *oracle) resultOf(c *svcCase) ([]byte, error) {
	r := c.req
	name, src, want, err := o.resolve(r)
	if err != nil {
		return nil, err
	}
	mreq := mcpart.Request{Validate: o.checking}
	lat := r.Machine.MoveLatency
	if lat <= 0 {
		lat = 5
	}
	var res any
	switch c.endpoint {
	case "compile":
		p, err := o.sess.Compile(o.ctx, name, src, mreq)
		if err != nil {
			return nil, err
		}
		if o.checking && p.Checksum() != want {
			return nil, fmt.Errorf("checksum %d, reference %d", p.Checksum(), want)
		}
		res = &serve.CompileResult{Name: p.Name(), Checksum: p.Checksum(),
			Functions: len(p.Module().Funcs), Objects: len(p.Module().Objects)}
	case "partition":
		m, err := mcpart.MachinePreset(r.Machine.Preset, lat)
		if err != nil {
			return nil, err
		}
		s, err := schemeOf(r.Scheme)
		if err != nil {
			return nil, err
		}
		res0, err := o.sess.Evaluate(o.ctx, name, src, m, s, mreq)
		if err != nil {
			return nil, err
		}
		res = &serve.PartitionResult{Scheme: string(res0.Scheme), Cycles: res0.Cycles, Moves: res0.Moves,
			DataMap: dataMapSlice(res0.DataMap), Validated: r.Validate}
	case "sweep", "best":
		m, err := mcpart.MachinePreset(r.Machine.Preset, lat)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if c.endpoint == "sweep" {
			ex, err := o.sess.Sweep(o.ctx, name, src, m, r.MaxObjects, mreq)
			if err != nil {
				return nil, err
			}
			if err := checkSweep(ex); err != nil {
				return nil, err
			}
			res = &serve.SweepResult{Points: len(ex.Points), Best: ex.Best, Worst: ex.Worst,
				GDPMask: ex.GDPMask, PMaxMask: ex.PMaxMask}
		} else {
			br, err := o.sess.Best(o.ctx, name, src, m, r.MaxObjects, mreq)
			if err != nil {
				return nil, err
			}
			res = &serve.BestResult{Mask: br.Mask, Cycles: br.Cycles, Moves: br.Moves}
		}
		o.sweep += time.Since(t)
	default:
		return nil, fmt.Errorf("unknown endpoint %q", c.endpoint)
	}
	return json.Marshal(res)
}

// resolve returns the program a request names and, for a checking
// oracle, its reference checksum.
func (o *oracle) resolve(r serve.APIRequest) (name, src string, want int64, err error) {
	if r.Bench != "" {
		b, err := bench.Get(r.Bench)
		return b.Name, b.Source, b.Want, err
	}
	p := program{name: r.Name, source: r.Source}
	if p.name == "" {
		p.name = "request"
	}
	if o.checking {
		err = reference(&p)
	}
	return p.name, p.source, p.want, err
}

func schemeOf(name string) (mcpart.Scheme, error) {
	switch name {
	case "unified":
		return mcpart.SchemeUnified, nil
	case "gdp":
		return mcpart.SchemeGDP, nil
	case "profilemax":
		return mcpart.SchemeProfileMax, nil
	case "naive":
		return mcpart.SchemeNaive, nil
	}
	return "", fmt.Errorf("unknown scheme %q", name)
}

// dataMapSlice renders a data map in object-ID order.
func dataMapSlice(dm mcpart.DataMap) []int {
	if dm == nil {
		return nil
	}
	ids := make([]int, 0, len(dm))
	for id := range dm {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = dm[id]
	}
	return out
}

// expect returns the oracle bytes of a case, computing each distinct
// case once.
func (o *oracle) expect(c *svcCase) ([]byte, error) {
	if b, ok := o.want[c.key]; ok {
		return b, nil
	}
	b, err := o.resultOf(c)
	if err != nil {
		return nil, err
	}
	o.want[c.key] = b
	return b, nil
}

// check compares every successful response byte for byte with the
// oracle and returns one message per mismatch.
func (o *oracle) check(all []sent) []string {
	var bad []string
	for _, s := range all {
		if !s.ok {
			continue
		}
		want, err := o.expect(s.c)
		switch {
		case err != nil:
			bad = append(bad, s.c.key+": oracle: "+err.Error())
		case !bytes.Equal(want, s.result):
			bad = append(bad, fmt.Sprintf("%s: daemon %s, oracle %s", s.c.key, s.result, want))
		}
	}
	return bad
}

// checkAll compares every response with the oracle. The distinct cases
// are first computed on two independent oracles at once, each serial
// with its own session; check then only compares (and recomputes, to
// report it, any case that failed).
func checkAll(all []sent, pool *servicePool) (bad []string, rel float64, err error) {
	var halves [2][]*svcCase
	seen := map[string]bool{}
	add := func(c *svcCase) {
		if !seen[c.key] {
			seen[c.key] = true
			halves[len(seen)%2] = append(halves[len(seen)%2], c)
		}
	}
	for _, s := range all {
		if s.ok {
			add(s.c)
		}
	}
	for _, p := range pool.gdpPairs {
		add(p[0])
		add(p[1])
	}
	var ors [2]*oracle
	var wg sync.WaitGroup
	for k := range ors {
		ors[k] = newOracle(context.Background(), mcpart.SessionOptions{}, true)
		wg.Add(1)
		go func(o *oracle, cases []*svcCase) {
			defer wg.Done()
			for _, c := range cases {
				_, _ = o.expect(c) // a failing case is recomputed and reported by check
			}
		}(ors[k], halves[k])
	}
	wg.Wait()
	for key, b := range ors[1].want {
		ors[0].want[key] = b
	}
	rel, err = ors[0].gdpRelPerf(pool)
	return ors[0].check(all), rel, err
}

// gdpRelPerf is the geometric mean of unified/GDP cycles over the pool's
// GDP partition cases.
func (o *oracle) gdpRelPerf(pool *servicePool) (float64, error) {
	var rel []float64
	for _, pair := range pool.gdpPairs {
		var cyc [2]float64
		for i, c := range pair {
			b, err := o.expect(c)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", c.key, err)
			}
			var pr serve.PartitionResult
			if err := json.Unmarshal(b, &pr); err != nil {
				return 0, err
			}
			cyc[i] = float64(pr.Cycles)
		}
		rel = append(rel, cyc[1]/cyc[0])
	}
	return geomean(rel), nil
}

// replay runs requests in order through a fresh session configured like
// the daemon's (own artifact store, default program LRU) and returns the
// wall time of each. Unlike expect it recomputes every request, so the
// session, memo and store see the daemon's access pattern.
func (o *oracle) replay(reqs []sent) ([]time.Duration, error) {
	ds := make([]time.Duration, len(reqs))
	for i, s := range reqs {
		t := time.Now()
		b, err := o.resultOf(s.c)
		ds[i] = time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.c.key, err)
		}
		if prev, ok := o.want[s.c.key]; ok && !bytes.Equal(prev, b) {
			return nil, fmt.Errorf("%s: replay gave %s, then %s", s.c.key, prev, b)
		}
		o.want[s.c.key] = b
	}
	return ds, nil
}

// overheadPrefix is how many requests the untraced replay runs to price
// tracing on the service workload.
const overheadPrefix = 300

// traceService derives the service workload's per-layer metrics: the
// daemon-side telemetry and generator health from the ladder, and the
// pipeline layers from a traced serial replay of the request sequence
// seq through a session configured like the daemon's.
func traceService(cfg config, seq []sent, rungs []rungReport, shed float64, m metrics) error {
	n := min(overheadPrefix, len(seq))
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("replay-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	plain := newOracle(context.Background(), mcpart.SessionOptions{CacheDir: dir + "-plain"}, false)
	plainTimes, err := plain.replay(seq[:n])
	plain.sess.Close()
	os.RemoveAll(dir + "-plain")
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	ob := obs.New(reg, tr, obs.WallClock())
	o := newOracle(obs.With(context.Background(), ob), mcpart.SessionOptions{CacheDir: dir, Observer: ob}, false)
	defer o.sess.Close()
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	times, err := o.replay(seq)
	shares, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	self, err := selfTimes(tr)
	if err != nil {
		return err
	}
	layerInputs{ops: len(seq), self: self, counters: reg.Snapshot(), shares: shares, sweep: o.sweep}.metrics(m)
	ss := o.sess.Stats()
	m.set("mcpart.session_hit_ratio", ratio(float64(ss.Hits), float64(ss.Hits+ss.Misses)))
	m.set("mcpart.session_evictions", float64(ss.Evictions))
	st := o.sess.StoreStats()
	m.set("store.hit_ratio", st.HitRate())
	m.set("store.writes", float64(st.Writes))
	m.set("store.bytes", float64(st.LogBytes))

	ref := rungs[0].reqs
	var queue, elapsed, wire []float64
	for _, s := range ref {
		if s.ok {
			queue = append(queue, s.queueMS)
			elapsed = append(elapsed, s.elapsedMS)
			wire = append(wire, s.wireMS)
		}
	}
	m.set("serve.queue_wait_ms_p99", quantile(queue, 0.99))
	m.set("serve.elapsed_ms_p50", quantile(elapsed, 0.5))
	m.set("serve.wire_ms_p50", quantile(wire, 0.5))
	m.set("serve.shed", shed)
	m.set("loadgen.lag_ms_p99", rungs[0].lagP99)
	m.set("loadgen.backlog_max", float64(rungs[0].backlogMax))
	u, t := sum(plainTimes), sum(times[:n])
	m.set("trace.overhead_pct", 100*ratio(float64(t-u), float64(t)))
	return nil
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
