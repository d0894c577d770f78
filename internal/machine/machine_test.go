package machine

import (
	"testing"

	"mcpart/internal/ir"
)

func TestPaper2Cluster(t *testing.T) {
	cfg := Paper2Cluster(5)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumClusters() != 2 {
		t.Fatalf("clusters = %d", cfg.NumClusters())
	}
	for c := 0; c < 2; c++ {
		if cfg.Units(c, ir.FUInt) != 2 || cfg.Units(c, ir.FUFloat) != 1 ||
			cfg.Units(c, ir.FUMem) != 1 || cfg.Units(c, ir.FUBranch) != 1 {
			t.Errorf("cluster %d units wrong: %+v", c, cfg.Clusters[c])
		}
	}
	if cfg.MoveLatency != 5 || cfg.MoveBandwidth != 1 {
		t.Errorf("network wrong: lat=%d bw=%d", cfg.MoveLatency, cfg.MoveBandwidth)
	}
	if cfg.TotalUnits(ir.FUInt) != 4 {
		t.Errorf("TotalUnits(Int) = %d", cfg.TotalUnits(ir.FUInt))
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []*Config{
		Paper2Cluster(1), Paper2Cluster(10), FourCluster(5),
		Heterogeneous2(5), Unified1Cluster(2),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if FourCluster(5).NumClusters() != 4 {
		t.Error("FourCluster has wrong cluster count")
	}
	h := Heterogeneous2(5)
	if h.Units(0, ir.FUInt) != 2*h.Units(1, ir.FUInt) {
		t.Error("Heterogeneous2 cluster 0 should have 2x integer units")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := Paper2Cluster(5)
	bad.MoveLatency = 0
	if bad.Validate() == nil {
		t.Error("accepted zero move latency")
	}
	bad = Paper2Cluster(5)
	bad.MoveBandwidth = 0
	if bad.Validate() == nil {
		t.Error("accepted zero bandwidth")
	}
	bad = Paper2Cluster(5)
	bad.Clusters[1].Units[ir.FUMem] = 0
	if bad.Validate() == nil {
		t.Error("accepted cluster without memory unit")
	}
	if (&Config{Name: "x", MoveLatency: 1, MoveBandwidth: 1}).Validate() == nil {
		t.Error("accepted zero clusters")
	}
}

func TestKindOfCoversAllOpcodes(t *testing.T) {
	cases := map[ir.Opcode]ir.FUKind{
		ir.OpAdd: ir.FUInt, ir.OpMul: ir.FUInt, ir.OpMov: ir.FUInt, ir.OpAddr: ir.FUInt,
		ir.OpFAdd: ir.FUFloat, ir.OpIToF: ir.FUFloat,
		ir.OpLoad: ir.FUMem, ir.OpStore: ir.FUMem, ir.OpMalloc: ir.FUMem,
		ir.OpBr: ir.FUBranch, ir.OpCall: ir.FUBranch, ir.OpRet: ir.FUBranch,
	}
	for op, want := range cases {
		if got := op.Info().FU; got != want {
			t.Errorf("FU(%s) = %s, want %s", op, got, want)
		}
	}
}

func TestLatenciesItaniumLike(t *testing.T) {
	if ir.OpAdd.Info().Latency != 1 {
		t.Error("int add should be 1 cycle")
	}
	if ir.OpLoad.Info().Latency != 2 {
		t.Error("load should be 2 cycles (the paper's unified access latency)")
	}
	if ir.OpMul.Info().Latency <= ir.OpAdd.Info().Latency {
		t.Error("mul should be slower than add")
	}
	if ir.OpFDiv.Info().Latency <= ir.OpFMul.Info().Latency {
		t.Error("fdiv should be slower than fmul")
	}
	for op := ir.OpAdd; op <= ir.OpRet; op++ {
		if op.Info().Latency < 1 {
			t.Errorf("latency(%s) = %d < 1", op, op.Info().Latency)
		}
	}
}

func TestMemCapacitiesLocal(t *testing.T) {
	cfg := Paper2Cluster(5)
	if cfg.MemFractions() != nil {
		t.Error("nil expected without capacities")
	}
	asym, err := WithMemCapacities(cfg, 1024, 3072)
	if err != nil {
		t.Fatal(err)
	}
	fr := asym.MemFractions()
	if fr[0] != 0.25 || fr[1] != 0.75 {
		t.Errorf("fractions = %v", fr)
	}
	// The original config is untouched.
	if cfg.Clusters[0].MemBytes != 0 {
		t.Error("WithMemCapacities mutated its input")
	}
	if _, err := WithMemCapacities(cfg, 1); err == nil {
		t.Error("accepted wrong count")
	}
	if _, err := WithMemCapacities(cfg, -1, 5); err == nil {
		t.Error("accepted negative capacity")
	}
	// Partial capacities also yield nil fractions.
	half := *cfg
	half.Clusters = append([]Cluster(nil), cfg.Clusters...)
	half.Clusters[0].MemBytes = 100
	if half.MemFractions() != nil {
		t.Error("partial capacities should give nil fractions")
	}
}

func TestFUKindStrings(t *testing.T) {
	want := map[ir.FUKind]string{ir.FUInt: "I", ir.FUFloat: "F", ir.FUMem: "M", ir.FUBranch: "B"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
	if ir.NumFUKinds.String() != "?" {
		t.Error("out-of-range kind should render '?'")
	}
}

func TestRingTopology(t *testing.T) {
	cfg := RingFour(5)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Topology != TopologyRing || cfg.Topology.String() != "ring" {
		t.Error("topology not ring")
	}
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 5}, {1, 0, 5}, {0, 2, 10}, {0, 3, 5}, {1, 3, 10}, {2, 3, 5},
	}
	for _, c := range cases {
		if got := cfg.MoveLat(c.a, c.b); got != c.want {
			t.Errorf("MoveLat(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	bus := Paper2Cluster(5)
	if bus.MoveLat(0, 1) != 5 || bus.MoveLat(1, 1) != 0 {
		t.Error("bus MoveLat wrong")
	}
	if bus.Topology.String() != "bus" {
		t.Error("default topology should be bus")
	}
}
