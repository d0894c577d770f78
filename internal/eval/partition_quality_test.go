package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/gdp"
	"mcpart/internal/machine"
)

// TestFastPartitionNoWorseOnWorkloads is the acceptance gate for the graph
// partitioner on the paper's own workloads (not just synthetic graphs):
// for every bundled benchmark and both machine shapes, the object
// partition GDP produces is lexicographically no worse by (balance
// violation, cut weight) than the legacy bisection engine's, recorded in
// testdata/legacy_gdp_partition.golden. That engine is deleted; nothing
// regenerates the file. Violation is measured the same way the
// partitioner's constraint is stated: bytes placed on a cluster beyond
// total*fraction*(1+MemTol).
func TestFastPartitionNoWorseOnWorkloads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy_gdp_partition.golden"))
	if err != nil {
		t.Fatal(err)
	}
	legacy := map[string][2]int64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var k int
		var viol, cut int64
		if _, err := fmt.Sscan(line, &name, &k, &viol, &cut); err != nil {
			t.Fatalf("malformed golden line %q: %v", line, err)
		}
		legacy[fmt.Sprint(name, "/", k)] = [2]int64{viol, cut}
	}
	cfgs := []*machine.Config{machine.Paper2Cluster(5), machine.FourCluster(5)}
	if want := len(bench.All()) * len(cfgs); len(legacy) != want {
		t.Fatalf("golden has %d rows, want %d", len(legacy), want)
	}
	for _, b := range bench.All() {
		c, err := Prepare(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			k := cfg.NumClusters()
			ref, ok := legacy[fmt.Sprint(b.Name, "/", k)]
			if !ok {
				t.Fatalf("%s k=%d: no legacy row in the golden", b.Name, k)
			}
			opts := gdp.Options{MemFractions: cfg.MemFractions(), Workers: 1}
			dp, err := gdp.PartitionData(c.Mod, c.Prof, k, opts)
			if err != nil {
				t.Fatalf("%s k=%d: %v", b.Name, k, err)
			}
			bytes := gdp.MemBytesPerCluster(c.Mod, dp.DataMap, c.Prof, k)
			var total int64
			for _, v := range bytes {
				total += v
			}
			frac := func(p int) float64 {
				if fr := cfg.MemFractions(); len(fr) == k {
					return fr[p]
				}
				return 1 / float64(k)
			}
			var fv int64
			for p := 0; p < k; p++ {
				limit := int64(float64(total) * frac(p) * 1.10) // default MemTol 0.10
				if over := bytes[p] - limit; over > 0 {
					fv += over
				}
			}
			fc, lv, lc := dp.CutWeight, ref[0], ref[1]
			if fv > lv || (fv == lv && fc > lc) {
				t.Errorf("%s k=%d: engine (viol=%d cut=%d) worse than legacy (viol=%d cut=%d)",
					b.Name, k, fv, fc, lv, lc)
			} else {
				t.Logf("%s k=%d: engine (viol=%d cut=%d) vs legacy (viol=%d cut=%d)",
					b.Name, k, fv, fc, lv, lc)
			}
		}
	}
}
