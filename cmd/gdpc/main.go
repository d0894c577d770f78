// Command gdpc is the compiler driver: it compiles an mclang source file
// (or a bundled benchmark), partitions data and computation for a
// multicluster VLIW machine under a chosen scheme, and reports dynamic
// cycles, intercluster moves, and the data-object placement.
//
// Usage:
//
//	gdpc -bench rawcaudio -scheme gdp -latency 5
//	gdpc -src kernel.mc -scheme all -latency 10 -machine four
//	gdpc -bench fir -dump-ir
//
// Observability (DESIGN.md §10): -metrics prints the run's counter/
// histogram summary (memo hits, FM moves, scheduled cycles, ... with
// per-scheme labels), -trace FILE writes the deterministic span trace
// as sorted JSON lines, -prom FILE the metrics in Prometheus text
// format. gdpc evaluates schemes serially, so all three outputs are
// reproducible byte for byte.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mcpart"
	"mcpart/internal/ir"
	"mcpart/internal/obs"
	"mcpart/internal/parallel"
	"mcpart/internal/sched"
	"mcpart/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdpc:", err)
		os.Exit(1)
	}
}

// run executes the driver against args, writing output to out. Panics
// escaping the pipeline are contained into errors so the driver always
// exits with a one-line diagnostic.
func run(args []string, out io.Writer) (err error) {
	defer func() {
		if pe := parallel.Recovered("gdpc", -1, recover()); pe != nil {
			err = pe
		}
	}()
	fs := flag.NewFlagSet("gdpc", flag.ContinueOnError)
	var (
		srcPath   = fs.String("src", "", "path to an mclang source file")
		benchN    = fs.String("bench", "", "name of a bundled benchmark (see -list)")
		list      = fs.Bool("list", false, "list bundled benchmarks and exit")
		scheme    = fs.String("scheme", "all", "gdp | profilemax | naive | unified | all")
		latency   = fs.Int("latency", 5, "intercluster move latency in cycles")
		machineN  = fs.String("machine", "paper2", "machine preset: paper2 | four | eight | hetero2 | ring4 | ring8 | mesh4 | mesh8 | numa4")
		unroll    = fs.Int("unroll", 0, "loop unrolling factor (0 = default)")
		dumpIR    = fs.Bool("dump-ir", false, "print the compiled IR and exit")
		dumpSched = fs.String("dump-sched", "", "print the VLIW schedule of this function under the chosen scheme")
		objects   = fs.Bool("objects", true, "print the data-object table")
		validate  = fs.Bool("validate", false, "re-check every result with the independent schedule validator")
		timeout   = fs.Duration("timeout", 0, "abort after this duration (0 = no limit)")
		traceFile = fs.String("trace", "", "write the pipeline span trace to this file as sorted JSON lines")
		metrics   = fs.Bool("metrics", false, "print the metric registry summary after the output")
		promFile  = fs.String("prom", "", "write the metrics in Prometheus text format to this file")
		cacheDir  = fs.String("cachedir", "", "persistent artifact-cache directory: partition/schedule/profile results survive process restarts (empty = disabled)")
		cacheMax  = fs.Int64("cachemaxbytes", 0, "artifact-cache size bound in bytes (0 = 1 GiB default)")
		cacheStat = fs.Bool("cachestats", false, "print memoization and artifact-store cache statistics after the output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheDir != "" {
		if _, err := store.OpenShared(*cacheDir, store.Options{MaxBytes: *cacheMax}); err != nil {
			return fmt.Errorf("-cachedir: %w", err)
		}
		defer func() {
			if ferr := store.FlushShared(*cacheDir); err == nil {
				err = ferr
			}
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	sinks := &obs.ToolSinks{TracePath: *traceFile, Summary: *metrics, PromPath: *promFile}
	ctx = mcpart.ObserveContext(ctx, sinks.Observer())
	defer func() {
		if ferr := sinks.Flush(out); err == nil {
			err = ferr
		}
	}()

	if *list {
		for _, n := range mcpart.BenchmarkNames() {
			fmt.Fprintln(out, n)
		}
		return nil
	}

	prog, err := load(ctx, *srcPath, *benchN, *unroll, *cacheDir, *cacheMax)
	if err != nil {
		return err
	}
	if *dumpIR {
		fmt.Fprint(out, ir.Print(prog.Module()))
		return nil
	}

	m, err := mcpart.MachinePreset(*machineN, *latency)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "program %s  checksum %d  machine %s\n", prog.Name(), prog.Checksum(), m.Name)
	if *objects {
		fmt.Fprintln(out, "data objects:")
		for _, o := range prog.Objects() {
			kind := "global"
			if o.Heap {
				kind = "heap"
			}
			fmt.Fprintf(out, "  #%-3d %-24s %-6s %8d bytes %10d accesses\n",
				o.ID, o.Name, kind, o.Bytes, o.Accesses)
		}
	}

	schemes, err := pickSchemes(*scheme)
	if err != nil {
		return err
	}
	var unified *mcpart.Result
	for _, s := range schemes {
		r, err := mcpart.Evaluate(ctx, prog, m, s, mcpart.Options{Validate: *validate, CacheDir: *cacheDir, CacheMaxBytes: *cacheMax, Observer: sinks.Observer()})
		if err != nil {
			return err
		}
		if *dumpSched != "" && s == schemes[len(schemes)-1] {
			f := prog.Module().Func(*dumpSched)
			if f == nil {
				return fmt.Errorf("no function %q", *dumpSched)
			}
			fmt.Fprint(out, sched.FormatFunc(f, r.Assign[f], m))
		}
		line := fmt.Sprintf("%-11s %10d cycles %8d moves", s, r.Cycles, r.Moves)
		if s == mcpart.SchemeUnified {
			unified = r
		} else if unified != nil {
			line += fmt.Sprintf("   %6.1f%% of unified", 100*mcpart.RelativePerf(unified, r))
		}
		if r.DataMap != nil {
			line += "   map=" + mapString(r.DataMap)
		}
		fmt.Fprintln(out, line)
	}
	if *cacheStat {
		s := prog.MemoStats()
		fmt.Fprintf(out, "memo cache: hits %d  misses %d  promotions %d  entries %d  evictions %d\n",
			s.Hits, s.Misses, s.Promotions, s.Entries, s.Evictions)
		if *cacheDir != "" {
			st := prog.StoreStats()
			fmt.Fprintf(out, "artifact store: hits %d  misses %d  rate %.1f%%  writes %d  corrupt %d  bytes %d\n",
				st.Hits, st.Misses, 100*st.HitRate(), st.Writes, st.CorruptSkipped, st.LogBytes)
		}
	}
	return nil
}

func load(ctx context.Context, srcPath, benchName string, unroll int, cacheDir string, cacheMax int64) (*mcpart.Program, error) {
	copts := mcpart.CompileOptions{Unroll: unroll, CacheDir: cacheDir, CacheMaxBytes: cacheMax}
	switch {
	case srcPath != "" && benchName != "":
		return nil, fmt.Errorf("use only one of -src and -bench")
	case srcPath != "":
		data, err := os.ReadFile(srcPath)
		if err != nil {
			return nil, err
		}
		return mcpart.Compile(ctx, srcPath, string(data), copts)
	case benchName != "":
		src, err := mcpart.BenchmarkSource(benchName)
		if err != nil {
			return nil, err
		}
		return mcpart.Compile(ctx, benchName, src, copts)
	}
	return nil, fmt.Errorf("need -src FILE or -bench NAME (try -list)")
}

func pickSchemes(s string) ([]mcpart.Scheme, error) {
	switch s {
	case "gdp":
		return []mcpart.Scheme{mcpart.SchemeUnified, mcpart.SchemeGDP}, nil
	case "profilemax":
		return []mcpart.Scheme{mcpart.SchemeUnified, mcpart.SchemeProfileMax}, nil
	case "naive":
		return []mcpart.Scheme{mcpart.SchemeUnified, mcpart.SchemeNaive}, nil
	case "unified":
		return []mcpart.Scheme{mcpart.SchemeUnified}, nil
	case "all":
		return []mcpart.Scheme{mcpart.SchemeUnified, mcpart.SchemeGDP,
			mcpart.SchemeProfileMax, mcpart.SchemeNaive}, nil
	}
	return nil, fmt.Errorf("unknown scheme %q", s)
}

func mapString(dm mcpart.DataMap) string {
	out := make([]byte, len(dm))
	for i, c := range dm {
		out[i] = byte('0' + c)
	}
	return string(out)
}
