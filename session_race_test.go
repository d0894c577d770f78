package mcpart

// session_race_test.go is the concurrency torture test for the shared
// Session and the shared artifact store (run it under -race; `make race`
// does). Many goroutines hammer one Session with mixed work — evaluations
// across benchmarks and schemes, racing compiles, random cancellations —
// while another goroutine repeatedly drops and reopens the shared store
// handle (store.DropShared / store.OpenShared), simulating cache restarts
// under load. The assertion is the repository's determinism contract under
// fire: every request either fails with a cancellation it asked for or
// returns exactly the serial oracle's numbers. Shared caches are a
// wall-time optimization, never a source of cross-request contamination.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mcpart/internal/bench"
	"mcpart/internal/store"
)

// raceCase is one request shape the hammer cycles through.
type raceCase struct {
	bench  string
	scheme Scheme
}

// TestSessionStoreRaceHammer is the satellite race test. It is modest in
// the default run (seconds) but every access is exercised under the race
// detector in `make race`.
func TestSessionStoreRaceHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test skipped in -short")
	}
	dir := t.TempDir()
	t.Cleanup(func() { store.DropShared(dir) })
	s := NewSession(SessionOptions{CacheDir: dir, MaxPrograms: 3})
	defer s.Close()
	m := Paper2Cluster(5)

	cases := []raceCase{
		{"fir", SchemeGDP},
		{"fir", SchemeProfileMax},
		{"fsed", SchemeGDP},
		{"fsed", SchemeNaive},
		{"viterbi", SchemeUnified},
		{"viterbi", SchemeGDP},
	}
	type oracle struct {
		cycles, moves int64
		dm            string
	}
	want := make(map[raceCase]oracle, len(cases))
	sources := map[string]string{}
	for _, c := range cases {
		b, err := bench.Get(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		sources[c.bench] = b.Source
		if _, ok := want[c]; ok {
			continue
		}
		p, err := Compile(context.Background(), c.bench, b.Source, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Evaluate(context.Background(), p, m, c.scheme, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[c] = oracle{r.Cycles, r.Moves, fmt.Sprint(r.DataMap)}
	}

	const (
		workers  = 8
		requests = 12 // per worker
	)
	stop := make(chan struct{})
	chaosDone := make(chan struct{})

	// The store chaos goroutine: drop and reopen the shared handle under
	// live traffic. A dropped handle degrades reads to recomputes and sheds
	// writes — it must never change results.
	go func() {
		defer close(chaosDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				store.DropShared(dir)
			} else {
				store.OpenShared(dir, store.Options{})
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var failures sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				c := cases[(w+i)%len(cases)]
				ctx, cancel := context.WithCancel(context.Background())
				// A third of the requests cancel themselves mid-flight.
				if (w+i)%3 == 0 {
					go func() {
						time.Sleep(time.Duration((w*7+i)%5) * 100 * time.Microsecond)
						cancel()
					}()
				}
				r, err := s.Evaluate(ctx, c.bench, sources[c.bench], m, c.scheme, Request{})
				cancel()
				if err != nil {
					if isCancellation(err) || errors.Is(err, context.Canceled) {
						continue // the cancellation this request asked for
					}
					failures.Store(fmt.Sprintf("w%d/%d %s/%s", w, i, c.bench, c.scheme), err)
					continue
				}
				o := want[c]
				if r.Cycles != o.cycles || r.Moves != o.moves || fmt.Sprint(r.DataMap) != o.dm {
					failures.Store(fmt.Sprintf("w%d/%d %s/%s", w, i, c.bench, c.scheme),
						fmt.Errorf("got (%d, %d, %v), want (%d, %d, %s)",
							r.Cycles, r.Moves, r.DataMap, o.cycles, o.moves, o.dm))
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("hammer deadlocked")
	}
	close(stop)
	<-chaosDone
	failures.Range(func(k, v any) bool {
		t.Errorf("%s: %v", k, v)
		return true
	})

	// After the dust settles the session still serves a clean request with
	// oracle-exact results.
	store.OpenShared(dir, store.Options{})
	c := cases[0]
	r, err := s.Evaluate(context.Background(), c.bench, sources[c.bench], m, c.scheme, Request{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if o := want[c]; r.Cycles != o.cycles || r.Moves != o.moves {
		t.Fatalf("post-hammer request diverged: (%d, %d) want (%d, %d)", r.Cycles, r.Moves, o.cycles, o.moves)
	}
}
