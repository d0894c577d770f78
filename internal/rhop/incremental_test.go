package rhop

import (
	"reflect"
	"testing"

	"mcpart/internal/machine"
)

// multiFuncSrc exercises multiple functions, call boundaries and a mix of
// hot and cold regions so the refinement loops take nontrivial move
// sequences.
const multiFuncSrc = `
global int a[64];
global int b[64];
global int c[64];
func scale(int x) int {
    return x * 3 + 1;
}
func main() int {
    int i;
    int s = 0;
    int u = 0;
    for (i = 0; i < 64; i = i + 1) {
        a[i] = i * 2;
        b[i] = i + 7;
        c[i] = scale(i);
    }
    for (i = 0; i < 64; i = i + 1) {
        s = s + a[i] * b[i];
        u = u + c[i] * 5;
    }
    if (s > u) {
        s = s - u;
    }
    return s + u;
}`

// TestIncrementalRefinementEquivalence pins the exactness contract of the
// regionEval estimate cache: the incremental path (default) and the
// from-scratch path (noIncremental) must produce identical assignments for
// every function, machine, lock set, and refinement mode — the cache only
// changes speed, never outcomes.
func TestIncrementalRefinementEquivalence(t *testing.T) {
	for _, src := range []string{wideSrc, multiFuncSrc} {
		mod, prof := compileAndProfile(t, src)
		for _, mcfg := range []*machine.Config{
			machine.Paper2Cluster(1), machine.Paper2Cluster(5), machine.Paper2Cluster(10),
			machine.FourCluster(5), machine.Heterogeneous2(5), machine.RingFour(5),
		} {
			for _, opts := range []Options{
				{},
				{PairRefine: true},
				{UniformEdges: true},
				{RefinePasses: 2, BalanceTol: 0.2},
			} {
				full := opts
				full.noIncremental = true
				inc, err := PartitionModule(mod, prof, mcfg, nil, opts)
				if err != nil {
					t.Fatalf("%s incremental: %v", mcfg.Name, err)
				}
				ref, err := PartitionModule(mod, prof, mcfg, nil, full)
				if err != nil {
					t.Fatalf("%s full: %v", mcfg.Name, err)
				}
				for _, f := range mod.Funcs {
					if !reflect.DeepEqual(inc[f], ref[f]) {
						t.Errorf("%s %+v: %s assignments differ:\ninc  %v\nfull %v",
							mcfg.Name, opts, f.Name, inc[f], ref[f])
					}
				}
			}
		}
	}
}

// TestIncrementalEquivalenceWithLocks repeats the equivalence check with
// memory ops locked (the GDP schemes' configuration), where refinement
// moves around fixed anchors.
func TestIncrementalEquivalenceWithLocks(t *testing.T) {
	mod, prof := compileAndProfile(t, multiFuncSrc)
	mcfg := machine.Paper2Cluster(5)
	for _, f := range mod.Funcs {
		locks := Locks{}
		n := 0
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if op.Opcode.IsMem() {
					locks[op.ID] = n % 2
					n++
				}
			}
		}
		inc, err := PartitionFunc(f, prof, mcfg, locks, Options{PairRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := PartitionFunc(f, prof, mcfg, locks, Options{PairRefine: true, noIncremental: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc, ref) {
			t.Errorf("%s: locked assignments differ:\ninc  %v\nfull %v", f.Name, inc, ref)
		}
	}
}

// TestOptionsCacheKey pins that the key resolves defaults (zero and
// explicit-default Options share results) and separates every
// outcome-affecting knob, while ignoring the value-neutral noIncremental.
func TestOptionsCacheKey(t *testing.T) {
	zero := Options{}.CacheKey()
	if explicit := (Options{RefinePasses: 4, BalanceTol: 0.4}).CacheKey(); explicit != zero {
		t.Errorf("explicit defaults key %q != zero key %q", explicit, zero)
	}
	if (Options{noIncremental: true}).CacheKey() != zero {
		t.Error("noIncremental must not change the cache key")
	}
	distinct := []Options{
		{},
		{RefinePasses: 2},
		{BalanceTol: 0.2},
		{UniformEdges: true},
		{PairRefine: true},
	}
	seen := map[string]int{}
	for i, o := range distinct {
		k := o.CacheKey()
		if j, dup := seen[k]; dup {
			t.Errorf("options %d and %d collide on key %q", i, j, k)
		}
		seen[k] = i
	}
}
