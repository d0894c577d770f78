package ir

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestOpcodeTableGolden pins every row of the opcode table — name,
// operand count, destination, function unit, latency and class flags — to
// testdata/opcodes.golden, the paper's machine description as the
// scheduler, the partitioners and the validator cost it.
func TestOpcodeTableGolden(t *testing.T) {
	var sb strings.Builder
	for o := OpAdd; o < numOpcodes; o++ {
		info := o.Info()
		arity := fmt.Sprint(info.MinArgs)
		switch {
		case info.MaxArgs < 0:
			arity = "callee"
		case info.MaxArgs != info.MinArgs:
			arity = fmt.Sprintf("%d-%d", info.MinArgs, info.MaxArgs)
		}
		var flags []string
		for _, f := range []struct {
			on   bool
			name string
		}{{o.IsMem(), "mem"}, {o.IsBranch(), "branch"}, {o.IsTerminator(), "term"}, {o.IsFloat(), "float"}} {
			if f.on {
				flags = append(flags, f.name)
			}
		}
		if len(flags) == 0 {
			flags = []string{"-"}
		}
		fmt.Fprintf(&sb, "%-7s arity=%-6s dst=%-5v fu=%s lat=%-2d flags=%s\n",
			o, arity, o.HasDst(), info.FU, info.Latency, strings.Join(flags, ","))
	}
	want, err := os.ReadFile("testdata/opcodes.golden")
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("opcode table differs from testdata/opcodes.golden:\n%s", sb.String())
	}
}

// TestOpcodeTableEval checks the table's internal consistency: exactly the
// pure arithmetic opcodes evaluate, only div and rem trap, and a trapping
// op names its fault.
func TestOpcodeTableEval(t *testing.T) {
	for o := OpAdd; o < numOpcodes; o++ {
		info := o.Info()
		if info.Eval != nil && (!info.Pure || !info.Dst || info.MinArgs != info.MaxArgs ||
			info.MinArgs < 1 || info.MinArgs > 2 || (info.Type != OperInt && info.Type != OperFloat)) {
			t.Errorf("%s: Eval on a row that is not a pure 1- or 2-operand op", o)
		}
		if info.Pure && info.Eval == nil && o != OpMov && o != OpAddr {
			t.Errorf("%s: pure opcode without Eval", o)
		}
		if (info.Trap != "") != (o == OpDiv || o == OpRem) {
			t.Errorf("%s: Trap = %q", o, info.Trap)
		}
	}
	if _, ok := OpDiv.Info().Eval(ConstInt(1), ConstInt(0)); ok {
		t.Error("div by zero produced a value")
	}
	if Opcode(-1).Info() != OpInvalid.Info() || numOpcodes.Info() != OpInvalid.Info() {
		t.Error("out-of-range opcodes must map to the invalid row")
	}
}
