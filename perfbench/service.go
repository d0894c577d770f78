package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mcpart/internal/bench"
	"mcpart/internal/machine"
	"mcpart/internal/progen"
	"mcpart/internal/serve"
)

// The service workload drives a real gdpd child process over HTTP with
// an open-loop, seeded request mix at a fixed ladder of offered rates.

// Ladder shape. The reference rung, where the latency metrics are read,
// offers refRate for refShare of the run: a light load, so a request's
// latency is mostly its own service time rather than queueing behind the
// mix's heavy requests on the two connections, which turned host noise
// into swings of half the median. Short coarse rungs then climb from
// climbBase by ladderStep until one fails, and refineSteps longer rungs
// bisect geometrically between the last passing and the first failing
// rate.
const (
	refRate     = 50.0 // requests per second
	refShare    = 0.6
	climbBase   = 100.0
	coarseShare = 0.05
	refineShare = 0.1
	ladderStep  = 1.25
	ladderMax   = 10 // coarse rungs above climbBase, at most
	refineSteps = 3
	p99LimitMS  = 250.0
	lagLimitMS  = 20.0
	// A rung's backlog may gain at most max(5, 5% of its requests).
	growthFloor = 5.0
	growthShare = 0.05
	// settle is the idle pause between rungs, so one rung's tail work
	// does not land in the next.
	settle      = 250 * time.Millisecond
	connections = 2
	freshShare  = 0.10 // requests compiling a freshly generated source
	searchShare = 0.10 // sweep and best requests
	daemonSlots = 2    // gdpd -maxconcurrent
)

// svcCase is one distinct request.
type svcCase struct {
	endpoint string // compile | partition | sweep | best
	req      serve.APIRequest
	body     []byte // the request's JSON
	key      string // endpoint + body: the oracle index
}

func newCase(endpoint string, req serve.APIRequest) *svcCase {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // APIRequest always marshals
	}
	return &svcCase{endpoint: endpoint, req: req, body: body, key: endpoint + " " + string(body)}
}

var schemeNames = []string{"unified", "gdp", "profilemax", "naive"}

// servicePool is the fixed set of bundled-program requests the mix draws
// from: one partition case for every machine preset × scheme (programs
// and latencies rotate so every program and every latency appears), a
// compile of every bundled program, and a sweep and a best-mapping search
// of every Figure 9 program at each latency.
type servicePool struct {
	partition, compile, search []*svcCase
	// gdpPairs pairs each GDP partition case with its unified baseline
	// (same program, machine and latency) for gdp_rel_perf.
	gdpPairs [][2]*svcCase
}

func newServicePool() *servicePool {
	bs := bench.All()
	lats := []int{1, 5, 10}
	p := &servicePool{}
	for i, preset := range machine.PresetNames() {
		for j, s := range schemeNames {
			b := bs[(4*i+j)%len(bs)]
			req := serve.APIRequest{Bench: b.Name, Scheme: s,
				Machine: serve.MachineSpec{Preset: preset, MoveLatency: lats[(i+j)%3]}}
			c := newCase("partition", req)
			p.partition = append(p.partition, c)
			if s == "gdp" {
				req.Scheme = "unified"
				p.gdpPairs = append(p.gdpPairs, [2]*svcCase{c, newCase("partition", req)})
			}
		}
	}
	for _, b := range bs {
		p.compile = append(p.compile, newCase("compile", serve.APIRequest{Bench: b.Name}))
	}
	for _, b := range bs {
		if !b.Exhaustive {
			continue
		}
		for _, lat := range lats {
			for _, ep := range []string{"sweep", "best"} {
				p.search = append(p.search, newCase(ep, serve.APIRequest{Bench: b.Name,
					Machine: serve.MachineSpec{Preset: "paper2", MoveLatency: lat}}))
			}
		}
	}
	return p
}

func (p *servicePool) all() []*svcCase {
	out := append(append(append([]*svcCase(nil), p.compile...), p.partition...), p.search...)
	return out
}

// mix builds each rung's requests: ≈80% partition, ≈10% sweep or best,
// and ≈10% compile of a newly generated source that no cache has seen,
// which pushes bundled programs out of the daemon's program LRU so they
// come back through its artifact store. Every rung offers the shares
// exactly and cycles through the pool evenly, in a seeded order, so the
// seed varies the order and the generated sources but not the mix.
type mix struct {
	pool  *servicePool
	rng   *rand.Rand
	seed  int64
	fresh int
}

// schedule returns a rung's arrivals, evenly spaced at rate over dur.
func (m *mix) schedule(rate float64, dur time.Duration) []planned {
	n := int(rate * dur.Seconds())
	nFresh := int(math.Round(freshShare * float64(n)))
	nSearch := int(math.Round(searchShare * float64(n)))
	cases := make([]*svcCase, 0, n)
	pick := func(from []*svcCase, k int) {
		off := m.rng.Intn(len(from))
		for i := 0; i < k; i++ {
			cases = append(cases, from[(off+i)%len(from)])
		}
	}
	pick(m.pool.search, nSearch)
	pick(m.pool.partition, n-nFresh-nSearch)
	for i := 0; i < nFresh; i++ {
		cases = append(cases, nil) // a generated source, filled in below
	}
	m.rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	out := make([]planned, n)
	for i, c := range cases {
		if c == nil {
			m.fresh++
			c = newCase("compile", serve.APIRequest{Name: fmt.Sprintf("fresh%d_%d", m.seed, m.fresh),
				Source: progen.Generate(m.rng.Int63(), progen.Options{})})
		}
		out[i] = planned{due: time.Duration((float64(i) + 0.5) / rate * float64(time.Second)), c: c}
	}
	return out
}

// newMix returns the request stream of the ladder's rung i, so every
// rung's inputs depend only on the seed and the rung's position.
func newMix(pool *servicePool, seed int64, i int) *mix {
	return &mix{pool: pool, rng: rand.New(rand.NewSource(seed*7919 + int64(i)*104729 + 1)), seed: seed*1000 + int64(i)}
}

type planned struct {
	due time.Duration // from the rung's start
	c   *svcCase
}

// sent is one request's outcome as the client saw it.
type sent struct {
	c         *svcCase
	ok        bool
	result    []byte
	latMS     float64 // round trip plus the wait for a free connection
	wireMS    float64 // client round trip minus the server's elapsed_ms
	elapsedMS float64 // server telemetry
	queueMS   float64 // server telemetry
	err       string
}

// rungReport is one rate's measurements.
type rungReport struct {
	rate       float64
	reqs       []sent
	p50, p90   float64
	p99        float64
	lagP99     float64
	backlogMax int
	growth     float64 // backlog gained across the rung (least-squares trend)
	achieved   float64 // completed requests per second of rung wall time
	failed     int
	pass       bool
}

// daemon is one gdpd child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	dir    string
	client *http.Client
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots gdpd on a fresh cache directory and waits for
// /readyz.
func startDaemon(bin, workDir string, i int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(workDir, fmt.Sprintf("gdpd-%d-%d", os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-maxconcurrent", strconv.Itoa(daemonSlots), "-cachedir", dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gdpd: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, dir: dir, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true},
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("gdpd not ready after 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit, removes its
// cache directory and returns its peak resident set in MB.
func (d *daemon) stop() (float64, error) {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		err = fmt.Errorf("gdpd did not drain within 60s: %v", <-done)
	}
	rss := 0.0
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return rss, err
}

// do sends one request and decodes the envelope.
func (d *daemon) do(c *svcCase) sent {
	s := sent{c: c}
	t := time.Now()
	resp, err := d.client.Post(d.url+"/v1/"+c.endpoint, "application/json", bytes.NewReader(c.body))
	if err != nil {
		s.err = err.Error()
		return s
	}
	defer resp.Body.Close()
	var env struct {
		OK        bool            `json:"ok"`
		Result    json.RawMessage `json:"result"`
		Error     *serve.APIError `json:"error"`
		Telemetry *serve.Telemetry
	}
	err = json.NewDecoder(resp.Body).Decode(&env)
	rtt := ms(time.Since(t))
	switch {
	case err != nil:
		s.err = "decode: " + err.Error()
	case !env.OK || resp.StatusCode != http.StatusOK:
		s.err = fmt.Sprintf("status %d", resp.StatusCode)
		if env.Error != nil {
			s.err += " " + env.Error.Code + ": " + env.Error.Message
		}
	default:
		s.ok, s.result = true, env.Result
	}
	if env.Telemetry != nil {
		s.elapsedMS, s.queueMS = env.Telemetry.ElapsedMS, env.Telemetry.QueueWaitMS
		s.wireMS = rtt - s.elapsedMS
	}
	return s
}

// setup sends every pooled request once over the generator's
// connections: the warm-up pass that ends the daemon's set-up.
func (d *daemon) setup(pool []*svcCase) ([]sent, error) {
	out := make([]sent, len(pool))
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += connections {
				out[i] = d.do(pool[i])
			}
		}(w)
	}
	wg.Wait()
	for _, s := range out {
		if !s.ok {
			return nil, fmt.Errorf("warm-up %s: %s", s.c.key, s.err)
		}
	}
	return out, nil
}

// shed reads the daemon's shed counters from /metrics.
func (d *daemon) shed() (float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	total := 0.0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && strings.HasPrefix(f[0], "serve_shed_") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("metrics: %q: %w", sc.Text(), err)
			}
			total += v
		}
	}
	return total, sc.Err()
}

// runRung offers reqs open-loop: a dispatcher releases each request at
// its due time into a queue that connections workers drain. A request's
// latency is its round trip plus the time it waited after release for a
// free connection — the wait a stall imposes on later requests. How late
// the dispatcher released it (Go timers wake up to a millisecond late,
// more on a busy host) and how long an idle worker took to wake are the
// generator's own delays: the first is reported as the generator lag and
// bounded for a rung to count, neither is charged to the daemon.
func (d *daemon) runRung(rate float64, reqs []planned) rungReport {
	rep := rungReport{rate: rate, reqs: make([]sent, len(reqs))}
	type item struct {
		i        int
		released time.Time
	}
	queue := make(chan item, len(reqs)) // sized to the rung's sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now() // when this connection last became free
			for it := range queue {
				start := time.Now()
				s := d.do(reqs[it.i].c)
				s.latMS = ms(time.Since(start))
				if it.released.Before(free) {
					s.latMS += ms(free.Sub(it.released)) // waited for a connection
				}
				rep.reqs[it.i] = s
				free = time.Now()
			}
		}()
	}
	start := time.Now()
	lags := make([]float64, len(reqs))
	backlog := make([]float64, len(reqs))
	for i, p := range reqs {
		due := start.Add(p.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		released := time.Now()
		lags[i] = ms(released.Sub(due))
		queue <- item{i, released}
		backlog[i] = float64(len(queue))
	}
	close(queue)
	wg.Wait()
	wall := time.Since(start).Seconds()

	var lat []float64
	for _, s := range rep.reqs {
		if s.ok {
			lat = append(lat, s.latMS)
		} else {
			rep.failed++
		}
	}
	rep.p50, rep.p90, rep.p99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	rep.lagP99 = quantile(lags, 0.99)
	for _, b := range backlog {
		rep.backlogMax = max(rep.backlogMax, int(b))
	}
	rep.growth = trend(backlog) * float64(len(backlog))
	rep.achieved = ratio(float64(len(lat)), wall)
	rep.pass = rep.failed == 0 && len(lat) > 0 && rep.p99 <= p99LimitMS &&
		rep.lagP99 <= lagLimitMS && rep.growth <= max(growthFloor, growthShare*float64(len(reqs)))
	return rep
}

// trend is the least-squares slope of xs against its index.
func trend(xs []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i, y := range xs {
		x := float64(i)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	return ratio(n*sxy-sx*sy, n*sxx-sx*sx)
}

// ladder runs the reference rung and, with climb, climbs until a rung
// fails, then bisects between the last passing and the first failing
// rate (below the reference rate when the reference rung fails).
func (d *daemon) ladder(seed int64, pool *servicePool, seconds float64, climb bool) []rungReport {
	dur := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	n := 0
	run := func(rate float64, dur time.Duration) rungReport {
		reqs := newMix(pool, seed, n).schedule(rate, dur)
		n++
		runtime.GC()
		time.Sleep(settle)
		r := d.runRung(rate, reqs)
		var elapsed, wire []float64
		for _, s := range r.reqs {
			elapsed, wire = append(elapsed, s.elapsedMS), append(wire, s.wireMS)
		}
		fmt.Fprintf(os.Stderr, "rung %7.1f/s: %4d req  p50 %7.2f  p90 %7.2f  p99 %7.2f ms  server p50 %5.2f  wire p50 %5.2f ms  lag p99 %5.2f ms  backlog max %3d growth %5.2f  achieved %6.1f/s  failed %d  pass %v\n",
			r.rate, len(r.reqs), r.p50, r.p90, r.p99, median(elapsed), median(wire), r.lagP99, r.backlogMax, r.growth, r.achieved, r.failed, r.pass)
		return r
	}
	out := []rungReport{run(refRate, dur(refShare))}
	if !climb {
		return out
	}
	lo, hi := refRate, 0.0
	if !out[0].pass {
		lo, hi = refRate/(ladderStep*ladderStep), refRate
	} else {
		for k := 1; k <= ladderMax; k++ {
			rate := climbBase * math.Pow(ladderStep, float64(k))
			r := run(rate, dur(coarseShare))
			out = append(out, r)
			if !r.pass {
				hi = rate
				break
			}
			lo = rate
		}
	}
	for k := 0; hi > 0 && k < refineSteps; k++ {
		rate := math.Sqrt(lo * hi)
		r := run(rate, dur(refineShare))
		out = append(out, r)
		if r.pass {
			lo = rate
		} else {
			hi = rate
		}
	}
	return out
}

// maxRate is the highest offered rate whose rung passed (0 if none).
func maxRate(rungs []rungReport) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.pass {
			best = max(best, r.rate)
		}
	}
	return best
}

// serviceSetups is how many daemons set-up time is measured on.
const serviceSetups = 3

func runService(cfg config) (*outcome, error) {
	if cfg.gdpd == "" {
		return nil, fmt.Errorf("service workload needs --gdpd")
	}
	// The generator mostly waits on sockets: one processor and a lazier
	// collector leave the second core to the daemon.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	pool := newServicePool()
	warm := pool.all()
	var setups []float64
	var d *daemon
	var warmSent []sent
	n := serviceSetups
	if cfg.trace {
		n = 1 // set-up time is an end-to-end metric; the traced run needs one daemon
	}
	for i := 0; i < n; i++ {
		t := time.Now()
		dd, err := startDaemon(cfg.gdpd, cfg.workDir, i)
		if err != nil {
			return nil, err
		}
		ws, err := dd.setup(warm)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil || i < n-1 {
			if _, serr := dd.stop(); err == nil {
				err = serr
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		d, warmSent = dd, ws
	}
	rungs := d.ladder(cfg.seed, pool, cfg.seconds, !cfg.trace)
	shed, shedErr := d.shed()
	rss, err := d.stop()
	if err == nil {
		err = shedErr
	}
	if err != nil {
		return nil, err
	}

	var all []sent
	all = append(all, warmSent...)
	for _, r := range rungs {
		all = append(all, r.reqs...)
	}
	out := &outcome{attempted: len(all), metrics: metrics{}}
	for _, s := range all {
		if !s.ok {
			out.failed++
			out.mismatches = append(out.mismatches, s.c.key+": "+s.err)
		}
	}
	t := time.Now()
	bad, rel, err := checkAll(all, pool)
	if err != nil {
		return nil, err
	}
	out.failed += len(bad)
	out.mismatches = append(out.mismatches, bad...)
	fmt.Fprintf(os.Stderr, "service: %d requests checked in %.1fs; set-ups %.2v s\n", len(all), time.Since(t).Seconds(), setups)
	m := out.metrics
	if cfg.trace {
		// The layers are read at the reference rate: the warm-up pass and
		// the reference rung, replayed.
		return out, traceService(cfg, all[:len(warmSent)+len(rungs[0].reqs)], rungs, shed, m)
	}
	ref := rungs[0]
	m.set("setup_s", median(setups))
	m.set("peak_rss_mb", rss)
	m.set("ok_pct", 100*float64(out.attempted-out.failed)/float64(out.attempted))
	m.set("ops_per_s", ref.achieved)
	m.set("latency_ms_p50", ref.p50)
	m.set("latency_ms_p90", ref.p90)
	m.set("latency_ms_p99", ref.p99)
	m.set("max_rate_rps", maxRate(rungs))
	m.set("gdp_rel_perf", rel)
	return out, nil
}
