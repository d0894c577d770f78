package ir

import "fmt"

// Verify checks module-level structural invariants:
//
//   - every function has an entry block and every block ends in exactly one
//     terminator with the successor count its opcode requires;
//   - operand registers are within the function's register file;
//   - pred/succ edges are mutually consistent;
//   - calls name functions that exist in the module;
//   - OpAddr references a registered object and OpMalloc carries a heap site.
//
// It returns the first violation found, or nil.
func Verify(m *Module) error {
	for _, f := range m.Funcs {
		if err := verifyFunc(m, f); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	return nil
}

func verifyFunc(m *Module, f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	seenID := make(map[int]bool)
	for _, b := range f.Blocks {
		if b.Func != f {
			return fmt.Errorf("b%d: bad Func back-pointer", b.ID)
		}
		t := b.Terminator()
		if t == nil || !t.Opcode.IsTerminator() {
			return fmt.Errorf("b%d: missing terminator", b.ID)
		}
		for i, op := range b.Ops {
			if op.Block != b {
				return fmt.Errorf("b%d op %d: bad Block back-pointer", b.ID, i)
			}
			if seenID[op.ID] {
				return fmt.Errorf("b%d: duplicate op id %d", b.ID, op.ID)
			}
			seenID[op.ID] = true
			if op.ID < 0 || op.ID >= f.NOps {
				return fmt.Errorf("b%d: op id %d out of range [0,%d)", b.ID, op.ID, f.NOps)
			}
			if i != len(b.Ops)-1 && op.Opcode.IsTerminator() {
				return fmt.Errorf("b%d: terminator %s not last", b.ID, op.Opcode)
			}
			if op.Dst != NoReg && (op.Dst < 0 || int(op.Dst) >= f.NRegs) {
				return fmt.Errorf("b%d: dst v%d out of range", b.ID, op.Dst)
			}
			if op.Dst != NoReg && !op.Opcode.HasDst() {
				return fmt.Errorf("b%d: %s cannot define v%d", b.ID, op.Opcode, op.Dst)
			}
			for _, a := range op.Args {
				if a.Kind == OperReg && (a.Reg < 0 || int(a.Reg) >= f.NRegs) {
					return fmt.Errorf("b%d: use of v%d out of range", b.ID, a.Reg)
				}
			}
			if err := verifyOpShape(m, op); err != nil {
				return fmt.Errorf("b%d: %s: %w", b.ID, op, err)
			}
		}
		switch t.Opcode {
		case OpBr:
			if len(b.Succs) != 1 {
				return fmt.Errorf("b%d: br needs 1 successor, has %d", b.ID, len(b.Succs))
			}
		case OpBrCond:
			if len(b.Succs) != 2 {
				return fmt.Errorf("b%d: brcond needs 2 successors, has %d", b.ID, len(b.Succs))
			}
		case OpRet:
			if len(b.Succs) != 0 {
				return fmt.Errorf("b%d: ret must have no successors", b.ID)
			}
		}
		for _, s := range b.Succs {
			if !contains(s.Preds, b) {
				return fmt.Errorf("b%d -> b%d: successor missing pred back-edge", b.ID, s.ID)
			}
		}
		for _, p := range b.Preds {
			if !contains(p.Succs, b) {
				return fmt.Errorf("b%d: pred b%d missing succ edge", b.ID, p.ID)
			}
		}
	}
	return nil
}

func verifyOpShape(m *Module, op *Op) error {
	info := op.Opcode.Info()
	if n := len(op.Args); n < info.MinArgs || info.MaxArgs >= 0 && n > info.MaxArgs {
		if info.MinArgs == info.MaxArgs {
			return fmt.Errorf("%s needs %d %s", op.Opcode, info.MinArgs, plural(info.MinArgs, "arg"))
		}
		return fmt.Errorf("%s takes at most %d %s", op.Opcode, info.MaxArgs, plural(info.MaxArgs, "arg"))
	}
	switch op.Opcode {
	case OpAddr:
		if op.Obj == nil {
			return fmt.Errorf("addr without object")
		}
		if op.Obj.ID < 0 || op.Obj.ID >= len(m.Objects) || m.Objects[op.Obj.ID] != op.Obj {
			return fmt.Errorf("addr of unregistered object %q", op.Obj.Name)
		}
	case OpMalloc:
		if op.MallocSite == nil {
			return fmt.Errorf("malloc without site object")
		}
		if op.MallocSite.Kind != ObjHeap {
			return fmt.Errorf("malloc site %q is not a heap object", op.MallocSite.Name)
		}
	case OpCall:
		if m.Func(op.Callee) == nil {
			return fmt.Errorf("call of unknown function %q", op.Callee)
		}
		if got, want := len(op.Args), m.Func(op.Callee).NParams; got != want {
			return fmt.Errorf("call %s: %d args, want %d", op.Callee, got, want)
		}
	}
	return nil
}

func plural(n int, word string) string {
	if n == 1 {
		return word
	}
	return word + "s"
}

func contains(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}
