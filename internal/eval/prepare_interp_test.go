package eval

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/interp"
)

// TestPrepareEngineEquivalence pins that Prepare's profiling engine, the
// bytecode VM, agrees with the reference tree-walking interpreter: running
// interp.New directly on the VM-prepared module reproduces the checksum
// and a DeepEqual-identical Profile.
func TestPrepareEngineEquivalence(t *testing.T) {
	bm, err := bench.Get("fir")
	if err != nil {
		t.Fatal(err)
	}
	c, err := PrepareOpts(context.Background(), bm.Name, bm.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := interp.New(c.Mod, interp.Options{MaxSteps: Options{}.maxSteps()})
	v, err := in.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if c.Ret != v.I {
		t.Fatalf("checksum mismatch: vm %d, tree %d", c.Ret, v.I)
	}
	if c.Ret != bm.Want {
		t.Fatalf("checksum %d, want %d", c.Ret, bm.Want)
	}
	if !reflect.DeepEqual(c.Prof, in.Profile()) {
		t.Fatal("profiles diverge between engines")
	}
}

// TestPrepareMaxStepsHonored pins that Options.MaxSteps reaches the
// profiler: a cap far below the benchmark's step count must fail Prepare
// with a typed step-budget error. Budget parity between the VM and the
// tree walker is pinned in internal/interp and internal/bytecode.
func TestPrepareMaxStepsHonored(t *testing.T) {
	bm, err := bench.Get("fir")
	if err != nil {
		t.Fatal(err)
	}
	_, err = PrepareOpts(context.Background(), bm.Name, bm.Source, Options{MaxSteps: 100})
	var be *interp.BudgetError
	if !errors.As(err, &be) || be.Resource != "step" {
		t.Errorf("want step BudgetError, got %v", err)
	}
}

// TestPrepareMaxBytesHonored pins that Options.MaxBytes reaches the
// profiler: a heap cap below the benchmark's footprint must
// fail Prepare with a typed byte-budget error, and a generous cap must not
// change the result.
func TestPrepareMaxBytesHonored(t *testing.T) {
	bm, err := bench.Get("fir")
	if err != nil {
		t.Fatal(err)
	}
	_, err = PrepareOpts(context.Background(), bm.Name, bm.Source, Options{MaxBytes: 8})
	var be *interp.BudgetError
	if !errors.As(err, &be) || be.Resource != "byte" {
		t.Errorf("want byte BudgetError, got %v", err)
	}
	c, err := PrepareOpts(context.Background(), bm.Name, bm.Source, Options{MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ret != bm.Want {
		t.Fatalf("checksum under generous byte budget %d, want %d", c.Ret, bm.Want)
	}
}
