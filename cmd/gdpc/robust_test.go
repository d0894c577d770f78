package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func wantRunError(t *testing.T, wantSub string, args ...string) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	if err == nil {
		t.Fatalf("gdpc %v: want error, got success", args)
	}
	msg := err.Error()
	if !strings.Contains(msg, wantSub) {
		t.Errorf("gdpc %v: error %q missing %q", args, msg, wantSub)
	}
	if strings.ContainsRune(msg, '\n') {
		t.Errorf("gdpc %v: diagnostic is not one line: %q", args, msg)
	}
}

// TestFailurePaths pins the one-line diagnostics: the stage or input that
// failed must be nameable from the message alone.
func TestFailurePaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.mc")
	if err := os.WriteFile(bad, []byte("func main() int { return x; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantRunError(t, "unknown benchmark", "-bench", "doesnotexist")
	wantRunError(t, "undefined identifier", "-src", bad)
	wantRunError(t, "unknown scheme", "-bench", "fir", "-scheme", "bogus")
	wantRunError(t, "unknown machine preset", "-bench", "fir", "-machine", "bogus")
	wantRunError(t, "no function", "-bench", "fir", "-scheme", "gdp", "-dump-sched", "nope")
	wantRunError(t, "one of -src and -bench", "-src", bad, "-bench", "fir")
}

func TestValidateFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "fir", "-validate", "-objects=false"}, &sb); err != nil {
		t.Fatalf("-validate run failed: %v", err)
	}
	if !strings.Contains(sb.String(), "GDP") {
		t.Errorf("output missing GDP line:\n%s", sb.String())
	}
}

func TestTimeoutFlag(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-bench", "fir", "-timeout", "1ns"}, &sb)
	if err == nil {
		t.Fatal("want deadline error under -timeout 1ns")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("error = %v, want a deadline diagnostic", err)
	}
}
