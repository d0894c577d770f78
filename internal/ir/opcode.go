package ir

import (
	"fmt"
	"math"
)

// Opcode enumerates every operation kind in the IR.
type Opcode int

// The opcode space. Integer arithmetic operates on 64-bit two's-complement
// values; float arithmetic on IEEE-754 float64.
const (
	OpInvalid Opcode = iota

	// Integer arithmetic and logic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot

	// Integer comparisons; result is 0 or 1.
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE

	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg

	// Floating-point comparisons; result is integer 0 or 1.
	OpFCmpEQ
	OpFCmpNE
	OpFCmpLT
	OpFCmpLE
	OpFCmpGT
	OpFCmpGE

	// Conversions.
	OpIToF
	OpFToI

	// Register copy.
	OpMov

	// Memory.
	OpAddr   // dst = address of the global object in Obj
	OpMalloc // dst = pointer to fresh heap storage of Args[0] bytes; site id in MallocSite
	OpLoad   // dst = memory word at address Args[0]
	OpStore  // memory word at address Args[0] = Args[1]

	// Control.
	OpBr     // unconditional branch to Block.Succs[0]
	OpBrCond // if Args[0] != 0 branch to Succs[0] else Succs[1]
	OpCall   // dst (optional) = call Callee(Args...)
	OpRet    // return Args[0] if present

	numOpcodes
)

// FUKind is a function-unit class: the kind of cluster unit an operation
// issues on.
type FUKind int

// Function-unit classes.
const (
	FUInt FUKind = iota
	FUFloat
	FUMem
	FUBranch
	NumFUKinds
)

func (k FUKind) String() string {
	switch k {
	case FUInt:
		return "I"
	case FUFloat:
		return "F"
	case FUMem:
		return "M"
	case FUBranch:
		return "B"
	}
	return "?"
}

// OpInfo is one row of the opcode table: everything the compiler, the
// machine model and both interpreters know about an opcode.
type OpInfo struct {
	Name string
	// MinArgs and MaxArgs bound the number of value operands; MaxArgs < 0
	// means unbounded (call, whose count must match its callee).
	MinArgs, MaxArgs int
	// Dst reports whether the op defines a register (optional for call).
	Dst bool
	// FU is the function unit the op issues on; it also classifies the
	// opcode as float, memory or branch (see IsFloat, IsMem, IsBranch).
	FU FUKind
	// Latency is the cycles from issue until the result is available,
	// Itanium-class as in the paper's machine model.
	Latency int
	// Term marks ops that must end a basic block.
	Term bool
	// Pure ops have no side effects, so two identical ones compute the
	// same value: CSE may merge them and folding may evaluate them.
	Pure bool
	// Type is the operand kind Eval reads, OperInt or OperFloat.
	Type OperandKind
	// Eval computes a pure op over constant operands (y is ignored by
	// unary ops). It reports false, and no value, where the op traps;
	// Trap then names the fault. Nil for ops with no arithmetic.
	Eval func(x, y Operand) (Operand, bool)
	Trap string
}

var opTable = [numOpcodes]OpInfo{
	OpInvalid: {Name: "invalid"},

	OpAdd: binOp("add", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return ConstInt(x.Int + y.Int), true }),
	OpSub: binOp("sub", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return ConstInt(x.Int - y.Int), true }),
	OpMul: binOp("mul", FUInt, 3, OperInt, func(x, y Operand) (Operand, bool) { return ConstInt(x.Int * y.Int), true }),
	OpDiv: trapOp("div", 8, "division by zero", func(x, y Operand) (Operand, bool) {
		if y.Int == 0 {
			return Operand{}, false
		}
		return ConstInt(x.Int / y.Int), true
	}),
	OpRem: trapOp("rem", 8, "remainder by zero", func(x, y Operand) (Operand, bool) {
		if y.Int == 0 {
			return Operand{}, false
		}
		return ConstInt(x.Int % y.Int), true
	}),
	OpAnd: binOp("and", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return ConstInt(x.Int & y.Int), true }),
	OpOr:  binOp("or", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return ConstInt(x.Int | y.Int), true }),
	OpXor: binOp("xor", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return ConstInt(x.Int ^ y.Int), true }),
	// Shift counts are taken mod 64.
	OpShl: binOp("shl", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return ConstInt(x.Int << (uint64(y.Int) & 63)), true }),
	OpShr: binOp("shr", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return ConstInt(x.Int >> (uint64(y.Int) & 63)), true }),
	OpNeg: unaryOp("neg", FUInt, 1, OperInt, func(x, _ Operand) (Operand, bool) { return ConstInt(-x.Int), true }),
	OpNot: unaryOp("not", FUInt, 1, OperInt, func(x, _ Operand) (Operand, bool) { return ConstInt(^x.Int), true }),

	OpCmpEQ: binOp("cmpeq", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return boolConst(x.Int == y.Int), true }),
	OpCmpNE: binOp("cmpne", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return boolConst(x.Int != y.Int), true }),
	OpCmpLT: binOp("cmplt", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return boolConst(x.Int < y.Int), true }),
	OpCmpLE: binOp("cmple", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return boolConst(x.Int <= y.Int), true }),
	OpCmpGT: binOp("cmpgt", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return boolConst(x.Int > y.Int), true }),
	OpCmpGE: binOp("cmpge", FUInt, 1, OperInt, func(x, y Operand) (Operand, bool) { return boolConst(x.Int >= y.Int), true }),

	OpFAdd: binOp("fadd", FUFloat, 4, OperFloat, func(x, y Operand) (Operand, bool) { return ConstFloat(x.Float + y.Float), true }),
	OpFSub: binOp("fsub", FUFloat, 4, OperFloat, func(x, y Operand) (Operand, bool) { return ConstFloat(x.Float - y.Float), true }),
	OpFMul: binOp("fmul", FUFloat, 4, OperFloat, func(x, y Operand) (Operand, bool) { return ConstFloat(x.Float * y.Float), true }),
	OpFDiv: binOp("fdiv", FUFloat, 12, OperFloat, func(x, y Operand) (Operand, bool) { return ConstFloat(x.Float / y.Float), true }),
	OpFNeg: unaryOp("fneg", FUFloat, 4, OperFloat, func(x, _ Operand) (Operand, bool) { return ConstFloat(-x.Float), true }),

	OpFCmpEQ: binOp("fcmpeq", FUFloat, 4, OperFloat, func(x, y Operand) (Operand, bool) { return boolConst(x.Float == y.Float), true }),
	OpFCmpNE: binOp("fcmpne", FUFloat, 4, OperFloat, func(x, y Operand) (Operand, bool) { return boolConst(x.Float != y.Float), true }),
	OpFCmpLT: binOp("fcmplt", FUFloat, 4, OperFloat, func(x, y Operand) (Operand, bool) { return boolConst(x.Float < y.Float), true }),
	OpFCmpLE: binOp("fcmple", FUFloat, 4, OperFloat, func(x, y Operand) (Operand, bool) { return boolConst(x.Float <= y.Float), true }),
	OpFCmpGT: binOp("fcmpgt", FUFloat, 4, OperFloat, func(x, y Operand) (Operand, bool) { return boolConst(x.Float > y.Float), true }),
	OpFCmpGE: binOp("fcmpge", FUFloat, 4, OperFloat, func(x, y Operand) (Operand, bool) { return boolConst(x.Float >= y.Float), true }),

	OpIToF: unaryOp("itof", FUFloat, 4, OperInt, func(x, _ Operand) (Operand, bool) { return ConstFloat(float64(x.Int)), true }),
	OpFToI: unaryOp("ftoi", FUFloat, 4, OperFloat, func(x, _ Operand) (Operand, bool) { return ConstInt(ftoi(x.Float)), true }),

	OpMov:  {Name: "mov", MinArgs: 1, MaxArgs: 1, Dst: true, FU: FUInt, Latency: 1, Pure: true},
	OpAddr: {Name: "addr", Dst: true, FU: FUInt, Latency: 1, Pure: true},

	OpMalloc: {Name: "malloc", MinArgs: 1, MaxArgs: 1, Dst: true, FU: FUMem, Latency: 2},
	OpLoad:   {Name: "load", MinArgs: 1, MaxArgs: 1, Dst: true, FU: FUMem, Latency: 2},
	OpStore:  {Name: "store", MinArgs: 2, MaxArgs: 2, FU: FUMem, Latency: 1},

	OpBr:     {Name: "br", FU: FUBranch, Latency: 1, Term: true},
	OpBrCond: {Name: "brcond", MinArgs: 1, MaxArgs: 1, FU: FUBranch, Latency: 1, Term: true},
	OpCall:   {Name: "call", MaxArgs: -1, Dst: true, FU: FUBranch, Latency: 1},
	OpRet:    {Name: "ret", MaxArgs: 1, FU: FUBranch, Latency: 1, Term: true},
}

type evalFunc = func(x, y Operand) (Operand, bool)

// binOp and unaryOp give the row shapes of the pure arithmetic opcodes.
func binOp(name string, fu FUKind, lat int, typ OperandKind, eval evalFunc) OpInfo {
	return OpInfo{Name: name, MinArgs: 2, MaxArgs: 2, Dst: true, FU: fu, Latency: lat,
		Pure: true, Type: typ, Eval: eval}
}

func unaryOp(name string, fu FUKind, lat int, typ OperandKind, eval evalFunc) OpInfo {
	info := binOp(name, fu, lat, typ, eval)
	info.MinArgs, info.MaxArgs = 1, 1
	return info
}

// trapOp is an integer op whose Eval declines a zero divisor.
func trapOp(name string, lat int, trap string, eval evalFunc) OpInfo {
	info := binOp(name, FUInt, lat, OperInt, eval)
	info.Trap = trap
	return info
}

func boolConst(b bool) Operand {
	if b {
		return ConstInt(1)
	}
	return ConstInt(0)
}

// ftoi truncates toward zero. NaN, ±Inf and values outside the int64
// range, where a Go conversion is implementation-defined, give
// math.MinInt64 on every platform.
func ftoi(x float64) int64 {
	if x >= -0x1p63 && x < 0x1p63 {
		return int64(x)
	}
	return math.MinInt64
}

// Info returns the opcode's table row; out-of-range opcodes get the
// OpInvalid row. The row is shared and must not be modified.
func (o Opcode) Info() *OpInfo {
	if o < 0 || o >= numOpcodes {
		o = OpInvalid
	}
	return &opTable[o]
}

// String returns the assembler mnemonic of the opcode.
func (o Opcode) String() string {
	if o < 0 || o >= numOpcodes {
		return fmt.Sprintf("opcode(%d)", int(o))
	}
	return opTable[o].Name
}

// IsMem reports whether the opcode accesses data memory.
func (o Opcode) IsMem() bool { return o.Info().FU == FUMem }

// IsBranch reports whether the opcode transfers control.
func (o Opcode) IsBranch() bool { return o.Info().FU == FUBranch }

// IsTerminator reports whether the opcode must end a basic block.
func (o Opcode) IsTerminator() bool { return o.Info().Term }

// IsFloat reports whether the opcode executes on a floating-point unit.
func (o Opcode) IsFloat() bool { return o.Info().FU == FUFloat }

// HasDst reports whether operations with this opcode define a register.
func (o Opcode) HasDst() bool { return o.Info().Dst }
