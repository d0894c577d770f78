package bytecode_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"mcpart/internal/bytecode"
	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/opt"
)

var update = flag.Bool("update", false, "rewrite golden files")

// arithVec is one arithmetic corner case: an opcode over constant operands.
type arithVec struct {
	op   ir.Opcode
	args []ir.Operand
}

func arithVectors() []arithVec {
	i, f := ir.ConstInt, ir.ConstFloat
	nan, inf := math.NaN(), math.Inf(1)
	var vs []arithVec
	add := func(op ir.Opcode, args ...ir.Operand) { vs = append(vs, arithVec{op, args}) }

	divPairs := [][2]int64{
		{7, 2}, {-7, 2}, {7, -2}, {-7, -2}, {7, 0}, {-7, 0}, {0, 0},
		{math.MinInt64, -1}, {math.MinInt64, 1}, {math.MaxInt64, -1}, {math.MinInt64, 0},
	}
	for _, op := range []ir.Opcode{ir.OpDiv, ir.OpRem} {
		for _, p := range divPairs {
			add(op, i(p[0]), i(p[1]))
		}
	}
	for _, op := range []ir.Opcode{ir.OpShl, ir.OpShr} {
		for _, x := range []int64{7, -7, math.MinInt64} {
			for _, y := range []int64{0, 1, 63, 64, 65, -1, -64, math.MinInt64} {
				add(op, i(x), i(y))
			}
		}
	}
	add(ir.OpAdd, i(math.MaxInt64), i(1))
	add(ir.OpSub, i(math.MinInt64), i(1))
	add(ir.OpMul, i(math.MinInt64), i(-1))
	add(ir.OpMul, i(math.MaxInt64), i(math.MaxInt64))
	add(ir.OpAnd, i(-7), i(12))
	add(ir.OpOr, i(-7), i(12))
	add(ir.OpXor, i(-7), i(12))
	add(ir.OpNeg, i(math.MinInt64))
	add(ir.OpNot, i(0))
	for _, op := range []ir.Opcode{ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE} {
		add(op, i(math.MinInt64), i(math.MaxInt64))
		add(op, i(-1), i(-1))
	}

	for _, p := range [][2]float64{{1, 0}, {1, math.Copysign(0, -1)}, {-1, 0}, {0, 0}, {0, math.Copysign(0, -1)}, {inf, inf}, {1, inf}} {
		add(ir.OpFDiv, f(p[0]), f(p[1]))
	}
	add(ir.OpFAdd, f(inf), f(-inf))
	add(ir.OpFSub, f(inf), f(inf))
	add(ir.OpFMul, f(0), f(inf))
	add(ir.OpFMul, f(-1), f(0))
	add(ir.OpFNeg, f(0))
	add(ir.OpFNeg, f(nan))
	for _, op := range []ir.Opcode{ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE} {
		add(op, f(nan), f(1))
		add(op, f(1), f(nan))
		add(op, f(nan), f(nan))
		add(op, f(0), f(math.Copysign(0, -1)))
		add(op, f(-inf), f(inf))
	}
	for _, x := range []int64{0, -1, math.MaxInt64, math.MinInt64, 1<<53 + 1, -(1<<53 + 1)} {
		add(ir.OpIToF, i(x))
	}
	for _, x := range []float64{nan, inf, -inf, 1e300, -1e300, 0x1p63, -0x1p63, 0x1p63 - 1024, 2.5, -2.5, -0.5, math.Copysign(0, -1)} {
		add(ir.OpFToI, f(x))
	}
	return vs
}

// arithModule compiles every vector into its own zero-parameter function
// "fN" whose body is the op and a return of its result.
func arithModule(vs []arithVec) *ir.Module {
	m := ir.NewModule("arith")
	for n, v := range vs {
		bd := ir.NewBuilder(m, fmt.Sprintf("f%d", n), 0)
		bd.Ret(ir.Reg(bd.Emit(v.op, v.args...)))
	}
	return m
}

func fmtOperand(a ir.Operand) string {
	if a.Kind == ir.OperFloat {
		return "f:" + strconv.FormatFloat(a.Float, 'g', -1, 64)
	}
	return "i:" + strconv.FormatInt(a.Int, 10)
}

func fmtValue(v interp.Value, err error) string {
	if err != nil {
		msg := err.Error()
		return "trap(" + msg[strings.LastIndex(msg, ": ")+2:] + ")"
	}
	if v.Kind == interp.ValFloat {
		return fmtOperand(ir.ConstFloat(v.F))
	}
	return fmtOperand(ir.ConstInt(v.I))
}

// TestArithmeticGolden runs every arithmetic corner vector through
// constant folding, the tree walker and the bytecode VM, requires the
// three to agree (folding may decline exactly where the engines trap), and
// pins the results to testdata/arith.golden. The golden is the external
// reference for opcode arithmetic: FuzzVM compares the two engines, which
// share one evaluation table, so it cannot catch a wrong result.
//
// Regenerate with `go test ./internal/bytecode -run TestArithmeticGolden -update`.
func TestArithmeticGolden(t *testing.T) {
	vs := arithVectors()
	folded := arithModule(vs)
	opt.Optimize(folded)
	mod := arithModule(vs)
	tree := interp.New(mod, interp.Options{})
	prog, err := bytecode.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	vm := bytecode.NewVM(prog, interp.Options{})

	var sb strings.Builder
	for n, v := range vs {
		fn := fmt.Sprintf("f%d", n)
		args := make([]string, len(v.args))
		for k, a := range v.args {
			args[k] = fmtOperand(a)
		}
		tv, terr := tree.Run(fn)
		vv, verr := vm.Run(fn)
		got, vmGot := fmtValue(tv, terr), fmtValue(vv, verr)
		if got != vmGot {
			t.Errorf("%s %s: tree walker %s, VM %s", v.op, strings.Join(args, " "), got, vmGot)
		}
		ret := folded.Func(fn).Entry().Terminator().Args[0]
		switch {
		case ret.IsReg() && terr == nil:
			t.Errorf("%s %s: not folded, engines give %s", v.op, strings.Join(args, " "), got)
		case !ret.IsReg() && fmtOperand(ret) != got:
			t.Errorf("%s %s: folded to %s, engines give %s", v.op, strings.Join(args, " "), fmtOperand(ret), got)
		}
		fmt.Fprintf(&sb, "%s %s = %s\n", v.op, strings.Join(args, " "), got)
	}

	const golden = "testdata/arith.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if sb.String() != string(want) {
		t.Errorf("arithmetic changed; diff against %s:\n%s", golden, sb.String())
	}
}

// TestFToIOutOfRange pins the defined result of converting NaN, ±Inf and
// out-of-range floats to int, math.MinInt64, through mclang (int) casts on
// the tree walker, the VM and constant folding.
func TestFToIOutOfRange(t *testing.T) {
	casts := []string{"0.0 / 0.0", "1e300", "-1e300", "1.0 / 0.0", "-1.0 / 0.0", "9.3e18"}
	var src strings.Builder
	for n, c := range casts {
		fmt.Fprintf(&src, "func f%d() int { return (int)(%s); }\n", n, c)
	}
	src.WriteString("func main() int { return 0; }\n")

	mod := mustModule(t, src.String(), "ftoi", 1, false)
	folded := mustModule(t, src.String(), "ftoi", 1, true)
	tree := interp.New(mod, interp.Options{})
	prog, err := bytecode.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	vm := bytecode.NewVM(prog, interp.Options{})
	for n, c := range casts {
		fn := fmt.Sprintf("f%d", n)
		for engine, run := range map[string]func(string, ...interp.Value) (interp.Value, error){
			"tree walker": tree.Run, "VM": vm.Run,
		} {
			v, err := run(fn)
			if err != nil || v.Kind != interp.ValInt || v.I != math.MinInt64 {
				t.Errorf("%s: (int)(%s) = %v, %v; want %d", engine, c, v, err, int64(math.MinInt64))
			}
		}
		ret := folded.Func(fn).Entry().Terminator().Args[0]
		if ret.IsReg() || ret.Kind != ir.OperInt || ret.Int != math.MinInt64 {
			t.Errorf("folding: (int)(%s) = %s, want %d", c, ret, int64(math.MinInt64))
		}
	}
}
