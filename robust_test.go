package mcpart

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mcpart/internal/check"
	"mcpart/internal/machine"
)

func demoProgram(t *testing.T) *Program {
	t.Helper()
	p, err := Compile(context.Background(), "demo", demoSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInternalErrorContainsPanic: a panic inside the pipeline must come out
// of the facade as a typed *InternalError, never crash the caller.
func TestInternalErrorContainsPanic(t *testing.T) {
	p := demoProgram(t)
	opts := Options{}
	opts.Inject = func(s Scheme, stage string) error {
		if stage == "partition" {
			panic("synthetic facade panic")
		}
		return nil
	}
	_, err := Evaluate(context.Background(), p, Paper2Cluster(5), SchemeGDP, opts)
	if err == nil {
		t.Fatal("want error from panicking pipeline")
	}
	if !strings.Contains(err.Error(), "synthetic facade panic") {
		t.Errorf("error %q does not carry the panic value", err)
	}
	// Single-scheme evaluation has no matrix pool below it, so the facade's
	// own containment is what fires: the typed *InternalError.
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error = %v, want *InternalError", err)
	}
	if !strings.HasPrefix(ie.Error(), "mcpart: internal error:") {
		t.Errorf("InternalError message = %q", ie.Error())
	}
}

// TestMatrixPanicAttributed: under EvaluateAll the pool contains the panic
// first, so the error carries the (benchmark, scheme) cell.
func TestMatrixPanicAttributed(t *testing.T) {
	p := demoProgram(t)
	opts := Options{}
	opts.Inject = func(s Scheme, stage string) error {
		if s == SchemeGDP && stage == "partition" {
			panic("synthetic matrix panic")
		}
		return nil
	}
	_, err := EvaluateAll(context.Background(), p, Paper2Cluster(5), opts)
	if err == nil {
		t.Fatal("want error")
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Scheme != SchemeGDP {
		t.Errorf("error = %v, want GDP cell attribution", err)
	}
}

func TestEvaluateValidateOption(t *testing.T) {
	p := demoProgram(t)
	for _, s := range []Scheme{SchemeUnified, SchemeGDP, SchemeProfileMax, SchemeNaive} {
		if _, err := Evaluate(context.Background(), p, Paper2Cluster(5), s, Options{Validate: true}); err != nil {
			t.Errorf("%s failed validation: %v", s, err)
		}
	}
}

func TestEvaluateCtxCancellation(t *testing.T) {
	p := demoProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evaluate(ctx, p, Paper2Cluster(5), SchemeGDP, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate error = %v, want context.Canceled", err)
	}
	if _, err := EvaluateAll(ctx, p, Paper2Cluster(5), Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("EvaluateAll error = %v, want context.Canceled", err)
	}
	if _, err := ExhaustiveSearch(ctx, p, Paper2Cluster(5), Options{}, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("ExhaustiveSearch error = %v, want context.Canceled", err)
	}
}

// TestEntryPointsRejectInvalidMachine pins that every entry point taking a
// machine validates it first and fails with Validate's own error, instead
// of producing results on a machine Evaluate would refuse. The 3-cluster
// machine also pins that a cluster count the bisection partitioners cannot
// split fails with the typed machine.ErrClusterCount, not an untyped error
// from deep in the pipeline.
func TestEntryPointsRejectInvalidMachine(t *testing.T) {
	p := demoProgram(t)
	k3 := FourCluster(5)
	k3.Name, k3.Clusters = "3c-lat5", k3.Clusters[:3]
	ctx := context.Background()
	for _, tc := range []struct {
		m        *Machine
		sentinel error
	}{
		{Paper2Cluster(0), nil},
		{k3, machine.ErrClusterCount},
	} {
		m := tc.m
		want := m.Validate()
		if want == nil {
			t.Fatalf("%s validates", m.Name)
		}
		for name, call := range map[string]func() error{
			"Evaluate":    func() error { _, err := Evaluate(ctx, p, m, SchemeGDP, Options{}); return err },
			"EvaluateAll": func() error { _, err := EvaluateAll(ctx, p, m, Options{}); return err },
			"EvaluateDataMap": func() error {
				_, err := EvaluateDataMap(ctx, p, m, DataMap{0, 1}, Options{})
				return err
			},
			"ExhaustiveSearch": func() error { _, err := ExhaustiveSearch(ctx, p, m, Options{}, 0); return err },
			"BestMapping":      func() error { _, err := BestMapping(ctx, p, m, Options{}, 0); return err },
		} {
			err := call()
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s on %s: error = %v, want %v", name, m.Name, err, want)
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("%s on %s: error = %v, want errors.Is %v", name, m.Name, err, tc.sentinel)
			}
		}
	}
}

func TestEvaluateCtxDeadlinePreempts(t *testing.T) {
	p := demoProgram(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := EvaluateAll(ctx, p, Paper2Cluster(5), Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want context.DeadlineExceeded", err)
	}
}

// TestDegradedFallback drives the facade's Fallback knob end to end.
func TestDegradedFallback(t *testing.T) {
	p := demoProgram(t)
	opts := Options{Fallback: true}
	opts.Inject = func(s Scheme, stage string) error {
		if s == SchemeGDP && stage == "data" {
			return errors.New("injected data-partition failure")
		}
		return nil
	}
	cmp, err := EvaluateAll(context.Background(), p, Paper2Cluster(5), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.GDP.Degraded == nil {
		t.Fatal("GDP result not marked degraded")
	}
	var deg *Degradation = cmp.GDP.Degraded
	if deg.From != SchemeGDP || !strings.Contains(deg.Err.Error(), "injected") {
		t.Errorf("Degradation = %+v", deg)
	}
	if cmp.GDP.Scheme != SchemeProfileMax {
		t.Errorf("substitute scheme = %s", cmp.GDP.Scheme)
	}
}

// TestValidationErrorType: the exported alias and class constants let
// external callers classify validator rejections with errors.As + Has.
func TestValidationErrorType(t *testing.T) {
	ve := &ValidationError{Scheme: "GDP", Violations: []check.Violation{
		{Class: ViolationHome, Detail: "object 3 homed on cluster 9 of 2"},
	}}
	wrapped := fmt.Errorf("cell: %w", ve)
	var got *ValidationError
	if !errors.As(wrapped, &got) {
		t.Fatal("errors.As failed through the alias")
	}
	if !got.Has(ViolationHome) || got.Has(ViolationBus) {
		t.Errorf("Has misclassified: %v", got)
	}
	if !strings.Contains(got.Error(), "violates 1 invariant") {
		t.Errorf("message = %q", got.Error())
	}
}

func TestFormatScheduleRejectsCorruptAssignment(t *testing.T) {
	p := demoProgram(t)
	m := Paper2Cluster(5)
	r, err := Evaluate(context.Background(), p, m, SchemeGDP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := p.Module().Func("kernel")
	if f == nil {
		t.Fatal("no kernel function")
	}
	asg := r.Assign[f]
	saved := asg[0]
	asg[0] = 99 // cluster far out of range
	defer func() { asg[0] = saved }()
	if _, err := FormatSchedule(p, m, r, "kernel"); err == nil {
		t.Error("FormatSchedule accepted an out-of-range assignment")
	} else if !strings.Contains(err.Error(), "cluster") {
		t.Errorf("error = %v, want a cluster-range diagnostic", err)
	}
}
