// Package opt implements the classical scalar optimizations a VLIW
// toolchain (like the paper's Trimaran) applies before partitioning:
// block-local copy propagation, constant folding, common-subexpression
// elimination, and global dead-code elimination. The passes run to a
// fixpoint and renumber operation IDs densely afterwards, so downstream
// analyses (points-to, profiling, partitioning) see a clean module.
//
// All passes preserve the interpreter semantics exactly; the test suite
// checks every bundled benchmark's checksum with and without optimization.
package opt

import (
	"fmt"

	"mcpart/internal/cfg"
	"mcpart/internal/ir"
)

// Stats reports what the optimizer did.
type Stats struct {
	Folded     int // ops replaced by constants
	Propagated int // copy uses rewritten
	CSEd       int // redundant ops removed by value numbering
	Eliminated int // dead ops removed
	Rounds     int
}

func (s Stats) String() string {
	return fmt.Sprintf("folded=%d propagated=%d cse=%d dce=%d rounds=%d",
		s.Folded, s.Propagated, s.CSEd, s.Eliminated, s.Rounds)
}

// Optimize runs the pass pipeline over every function of m until nothing
// changes (bounded at 8 rounds) and returns aggregate statistics.
func Optimize(m *ir.Module) Stats {
	var total Stats
	for _, f := range m.Funcs {
		s := optimizeFunc(f)
		total.Folded += s.Folded
		total.Propagated += s.Propagated
		total.CSEd += s.CSEd
		total.Eliminated += s.Eliminated
		if s.Rounds > total.Rounds {
			total.Rounds = s.Rounds
		}
	}
	return total
}

func optimizeFunc(f *ir.Func) Stats {
	var total Stats
	for round := 0; round < 8; round++ {
		var s Stats
		for _, b := range f.Blocks {
			s.Propagated += copyPropBlock(f, b)
			s.Folded += foldBlock(b)
			s.CSEd += cseBlock(f, b)
		}
		s.Eliminated = dce(f)
		total.Folded += s.Folded
		total.Propagated += s.Propagated
		total.CSEd += s.CSEd
		total.Eliminated += s.Eliminated
		total.Rounds = round + 1
		if s.Folded+s.Propagated+s.CSEd+s.Eliminated == 0 {
			break
		}
	}
	renumber(f)
	return total
}

// copyPropBlock rewrites uses of registers defined by `mov` (and of
// registers holding constants) within a block. The mapping for a register
// dies when either side is redefined.
func copyPropBlock(f *ir.Func, b *ir.Block) int {
	changed := 0
	// value[r] = operand r currently equals, if any.
	value := map[ir.VReg]ir.Operand{}
	// holders[r] = registers whose value mapping mentions r.
	holders := map[ir.VReg][]ir.VReg{}
	kill := func(r ir.VReg) {
		delete(value, r)
		for _, h := range holders[r] {
			if v, ok := value[h]; ok && v.Kind == ir.OperReg && v.Reg == r {
				delete(value, h)
			}
		}
		delete(holders, r)
	}
	for _, op := range b.Ops {
		for i, a := range op.Args {
			if a.Kind != ir.OperReg {
				continue
			}
			if v, ok := value[a.Reg]; ok {
				op.Args[i] = v
				changed++
			}
		}
		if op.Dst == ir.NoReg {
			continue
		}
		kill(op.Dst)
		if op.Opcode == ir.OpMov {
			src := op.Args[0]
			if src.Kind != ir.OperReg || src.Reg != op.Dst {
				value[op.Dst] = src
				if src.Kind == ir.OperReg {
					holders[src.Reg] = append(holders[src.Reg], op.Dst)
				}
			}
		}
	}
	return changed
}

// foldBlock replaces all-constant pure operations with movs of their
// results. Folding never introduces behavior the interpreter would trap on
// (division by zero is left alone).
func foldBlock(b *ir.Block) int {
	changed := 0
	for _, op := range b.Ops {
		if op.Dst == ir.NoReg {
			continue
		}
		v, ok := fold(op)
		if !ok {
			continue
		}
		op.Opcode = ir.OpMov
		op.Args = []ir.Operand{v}
		changed++
	}
	return changed
}

// fold evaluates an op through the opcode table when every operand is a
// constant of the kind the op reads.
func fold(op *ir.Op) (ir.Operand, bool) {
	info := op.Opcode.Info()
	if info.Eval == nil || len(op.Args) != info.MinArgs {
		return ir.Operand{}, false
	}
	var xy [2]ir.Operand
	for i, a := range op.Args {
		if a.Kind != info.Type {
			return ir.Operand{}, false
		}
		xy[i] = a
	}
	return info.Eval(xy[0], xy[1])
}

// cseBlock performs block-local value numbering: a pure op identical to an
// earlier one (same opcode, operands, and — for loads — no intervening
// possibly-aliasing store) becomes a mov from the earlier result.
func cseBlock(f *ir.Func, b *ir.Block) int {
	changed := 0
	type key struct {
		opcode ir.Opcode
		nargs  int // a zero Operand equals Reg(0); arity disambiguates
		a0, a1 ir.Operand
		obj    *ir.Object
		epoch  int
	}
	avail := map[key]ir.VReg{}
	epoch := 0
	keyOf := func(op *ir.Op) (key, bool) {
		k := key{opcode: op.Opcode, obj: op.Obj, nargs: len(op.Args)}
		switch len(op.Args) {
		case 2:
			k.a1 = op.Args[1]
			fallthrough
		case 1:
			k.a0 = op.Args[0]
		}
		if op.Opcode == ir.OpLoad {
			k.epoch = epoch
			return k, true
		}
		return k, op.Opcode.Info().Pure
	}
	// A redefinition of a register invalidates every availability entry
	// mentioning it (operand or result).
	invalidate := func(r ir.VReg) {
		for k, res := range avail {
			if res == r ||
				(k.nargs >= 1 && k.a0.Kind == ir.OperReg && k.a0.Reg == r) ||
				(k.nargs >= 2 && k.a1.Kind == ir.OperReg && k.a1.Reg == r) {
				delete(avail, k)
			}
		}
	}
	for _, op := range b.Ops {
		if op.Opcode == ir.OpStore || op.Opcode == ir.OpCall || op.Opcode == ir.OpMalloc {
			epoch++
		}
		if op.Dst == ir.NoReg {
			continue
		}
		if k, ok := keyOf(op); ok && op.Opcode != ir.OpMov {
			if prev, hit := avail[k]; hit && prev != op.Dst {
				op.Opcode = ir.OpMov
				op.Args = []ir.Operand{ir.Reg(prev)}
				op.Obj = nil
				invalidate(op.Dst)
				changed++
				continue
			}
			invalidate(op.Dst)
			avail[k] = op.Dst
			continue
		}
		invalidate(op.Dst)
	}
	return changed
}

// dce removes pure operations whose results are never used, iterating
// because removals expose more dead code. Returns the number removed.
func dce(f *ir.Func) int {
	removed := 0
	for {
		du := cfg.ComputeDefUse(f)
		ops := f.OpsByID()
		dead := map[int]bool{}
		for _, op := range ops {
			if op == nil || op.Dst == ir.NoReg {
				continue
			}
			switch op.Opcode {
			case ir.OpStore, ir.OpBr, ir.OpBrCond, ir.OpRet, ir.OpCall, ir.OpMalloc:
				continue // side effects (calls/mallocs kept even if unused)
			}
			if len(du.UsesOf[op.ID]) == 0 {
				dead[op.ID] = true
			}
		}
		if len(dead) == 0 {
			return removed
		}
		for _, b := range f.Blocks {
			kept := b.Ops[:0]
			for _, op := range b.Ops {
				if dead[op.ID] {
					removed++
					continue
				}
				kept = append(kept, op)
			}
			b.Ops = kept
		}
		renumber(f)
	}
}

// renumber reassigns dense op IDs after mutation.
func renumber(f *ir.Func) {
	id := 0
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			op.ID = id
			id++
		}
	}
	f.NOps = id
}
