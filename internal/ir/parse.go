package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseModule parses the textual form produced by Print back into a
// Module, enabling golden tests and offline inspection of compiled IR.
// Print and ParseModule round-trip: ParseModule(Print(m)) prints
// identically to m.
func ParseModule(text string) (*Module, error) {
	p := &irParser{}
	lines := strings.Split(text, "\n")
	i := 0
	skipBlank := func() {
		for i < len(lines) && strings.TrimSpace(lines[i]) == "" {
			i++
		}
	}
	skipBlank()
	if i >= len(lines) || !strings.HasPrefix(lines[i], "module ") {
		return nil, fmt.Errorf("ir: expected 'module NAME' header")
	}
	p.mod = NewModule(strings.TrimSpace(strings.TrimPrefix(lines[i], "module ")))
	i++
	// Objects.
	for {
		skipBlank()
		if i >= len(lines) || !strings.HasPrefix(lines[i], "object ") {
			break
		}
		if err := p.parseObject(lines[i]); err != nil {
			return nil, err
		}
		i++
	}
	// Functions: gather each function's lines, then parse in two passes so
	// calls can be verified after all signatures exist.
	type rawFunc struct {
		header string
		body   []string
	}
	var raws []rawFunc
	for {
		skipBlank()
		if i >= len(lines) {
			break
		}
		if !strings.HasPrefix(lines[i], "func ") {
			return nil, fmt.Errorf("ir: unexpected line %q", lines[i])
		}
		rf := rawFunc{header: lines[i]}
		i++
		for i < len(lines) && !strings.HasPrefix(lines[i], "func ") {
			if strings.TrimSpace(lines[i]) != "" {
				rf.body = append(rf.body, lines[i])
			}
			i++
		}
		raws = append(raws, rf)
	}
	for _, rf := range raws {
		if err := p.parseFunc(rf.header, rf.body); err != nil {
			return nil, err
		}
	}
	if err := Verify(p.mod); err != nil {
		return nil, fmt.Errorf("ir: parsed module invalid: %w", err)
	}
	return p.mod, nil
}

type irParser struct {
	mod *Module
}

// parseObject handles: object #N kind name size [float] [= {a, b, ...}]
func (p *irParser) parseObject(line string) error {
	rest := strings.TrimPrefix(line, "object ")
	init := ""
	if idx := strings.Index(rest, " = {"); idx >= 0 {
		init = rest[idx+4:]
		init = strings.TrimSuffix(strings.TrimSpace(init), "}")
		rest = rest[:idx]
	}
	fields := strings.Fields(rest)
	if len(fields) < 4 {
		return fmt.Errorf("ir: bad object line %q", line)
	}
	id, err := strconv.Atoi(strings.TrimPrefix(fields[0], "#"))
	if err != nil || id != len(p.mod.Objects) {
		return fmt.Errorf("ir: object ids must be dense, got %q", fields[0])
	}
	o := &Object{Name: fields[2]}
	switch fields[1] {
	case "global":
		o.Kind = ObjGlobal
	case "heap":
		o.Kind = ObjHeap
	default:
		return fmt.Errorf("ir: unknown object kind %q", fields[1])
	}
	if o.Size, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
		return fmt.Errorf("ir: bad object size in %q", line)
	}
	if len(fields) > 4 {
		if fields[4] != "float" {
			return fmt.Errorf("ir: unexpected object suffix %q", fields[4])
		}
		o.IsFloat = true
	}
	if init != "" {
		for _, tok := range strings.Split(init, ",") {
			tok = strings.TrimSpace(tok)
			if o.IsFloat {
				f, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return fmt.Errorf("ir: bad float init %q", tok)
				}
				o.FloatInit = append(o.FloatInit, f)
				o.Init = append(o.Init, 0)
			} else {
				v, err := strconv.ParseInt(tok, 10, 64)
				if err != nil {
					return fmt.Errorf("ir: bad int init %q", tok)
				}
				o.Init = append(o.Init, v)
			}
		}
	}
	p.mod.AddObject(o)
	return nil
}

// parseFunc handles: func name(N params, M regs) followed by blocks.
func (p *irParser) parseFunc(header string, body []string) error {
	var name string
	var nparams, nregs int
	if _, err := fmt.Sscanf(header, "func %s", &name); err != nil {
		return fmt.Errorf("ir: bad func header %q", header)
	}
	open := strings.Index(name, "(")
	if open < 0 {
		return fmt.Errorf("ir: bad func header %q", header)
	}
	sig := header[strings.Index(header, "(")+1:]
	if _, err := fmt.Sscanf(sig, "%d params, %d regs", &nparams, &nregs); err != nil {
		return fmt.Errorf("ir: bad func signature %q", header)
	}
	name = name[:open]

	f := &Func{Name: name, NParams: nparams, NRegs: nregs}
	p.mod.AddFunc(f)

	// First pass: create blocks in order of their labels.
	for _, line := range body {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(line, "b") && strings.Contains(t, ":") && !strings.HasPrefix(line, " ") {
			f.Blocks = append(f.Blocks, &Block{ID: len(f.Blocks), Func: f})
		}
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: func %s has no blocks", name)
	}
	// Second pass: ops.
	cur := -1
	for _, line := range body {
		if !strings.HasPrefix(line, " ") {
			// Block label line, e.g. "b3:  ; preds b1 b2".
			label := strings.SplitN(strings.TrimSpace(line), ":", 2)[0]
			id, err := strconv.Atoi(strings.TrimPrefix(label, "b"))
			if err != nil || id != cur+1 {
				return fmt.Errorf("ir: unexpected block label %q", line)
			}
			cur = id
			continue
		}
		if cur < 0 {
			return fmt.Errorf("ir: op before first block in %s", name)
		}
		op, err := p.parseOp(f, strings.TrimSpace(line))
		if err != nil {
			return fmt.Errorf("ir: func %s b%d: %w", name, cur, err)
		}
		b := f.Blocks[cur]
		op.ID = f.NOps
		f.NOps++
		op.Block = b
		b.Ops = append(b.Ops, op)
	}
	return nil
}

func (p *irParser) parseOp(f *Func, line string) (*Op, error) {
	op := &Op{Dst: NoReg}
	// Optional "vN = " destination.
	if strings.HasPrefix(line, "v") {
		if eq := strings.Index(line, " = "); eq > 0 {
			d, err := strconv.Atoi(line[1:eq])
			if err == nil {
				op.Dst = VReg(d)
				line = line[eq+3:]
			}
		}
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty op")
	}
	opc, ok := opcodeByName(fields[0])
	if !ok {
		return nil, fmt.Errorf("unknown opcode %q", fields[0])
	}
	op.Opcode = opc
	rest := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))

	switch opc {
	case OpAddr:
		id, err := strconv.Atoi(strings.TrimPrefix(rest, "@"))
		if err != nil || id < 0 || id >= len(p.mod.Objects) {
			return nil, fmt.Errorf("bad addr target %q", rest)
		}
		op.Obj = p.mod.Objects[id]
		return op, nil
	case OpMalloc:
		parts := strings.SplitN(rest, ",", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("malloc needs '@site, size'")
		}
		id, err := strconv.Atoi(strings.TrimPrefix(strings.TrimSpace(parts[0]), "@"))
		if err != nil || id < 0 || id >= len(p.mod.Objects) {
			return nil, fmt.Errorf("bad malloc site %q", parts[0])
		}
		op.MallocSite = p.mod.Objects[id]
		rest = strings.TrimSpace(parts[1])
	case OpCall:
		parts := strings.SplitN(rest, ",", 2)
		nameEnd := strings.Fields(parts[0])
		if len(nameEnd) == 0 {
			return nil, fmt.Errorf("call without callee")
		}
		op.Callee = nameEnd[0]
		if len(parts) == 2 {
			rest = strings.TrimSpace(parts[1])
		} else {
			rest = strings.TrimSpace(strings.TrimPrefix(parts[0], op.Callee))
		}
	case OpBr:
		// "br b3": successor linked from the label.
		return op, p.linkSuccs(f, op, rest, 1)
	case OpBrCond:
		// "brcond v1, b2, b3".
		parts := strings.SplitN(rest, ",", 2)
		a, err := parseOperand(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, err
		}
		op.Args = []Operand{a}
		if len(parts) != 2 {
			return nil, fmt.Errorf("brcond needs targets")
		}
		return op, p.linkSuccs(f, op, strings.TrimSpace(parts[1]), 2)
	}
	if rest != "" {
		for _, tok := range strings.Split(rest, ",") {
			a, err := parseOperand(strings.TrimSpace(tok))
			if err != nil {
				return nil, err
			}
			op.Args = append(op.Args, a)
		}
	}
	return op, nil
}

// linkSuccs parses "bN[, bM]" branch targets and wires CFG edges. The op
// must already be destined for the block currently being filled, which is
// the last block with a smaller count... successors are linked via the
// containing block when the op is appended; here we record them directly.
func (p *irParser) linkSuccs(f *Func, op *Op, rest string, want int) error {
	targets := strings.Split(rest, ",")
	if len(targets) != want {
		return fmt.Errorf("branch wants %d targets, got %q", want, rest)
	}
	// The op has not been appended yet; the caller appends it to the
	// current block, which is the last block that has received ops or the
	// next empty one. We defer edge wiring by stashing the target ids in
	// Args-free storage: use a small closure via the block pointer instead.
	// Simplest correct approach: wire edges now using the block the caller
	// will append to — identified as the first block whose terminator is
	// still missing.
	var cur *Block
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || !t.Opcode.IsTerminator() {
			cur = b
			break
		}
	}
	if cur == nil {
		return fmt.Errorf("no open block for branch")
	}
	for _, t := range targets {
		t = strings.TrimSpace(t)
		id, err := strconv.Atoi(strings.TrimPrefix(t, "b"))
		if err != nil || id < 0 || id >= len(f.Blocks) {
			return fmt.Errorf("bad branch target %q", t)
		}
		to := f.Blocks[id]
		cur.Succs = append(cur.Succs, to)
		to.Preds = append(to.Preds, cur)
	}
	return nil
}

func parseOperand(tok string) (Operand, error) {
	if tok == "" {
		return Operand{}, fmt.Errorf("empty operand")
	}
	if strings.HasPrefix(tok, "v") {
		if r, err := strconv.Atoi(tok[1:]); err == nil {
			return Reg(VReg(r)), nil
		}
	}
	if strings.ContainsAny(tok, ".eE") && !strings.HasPrefix(tok, "0x") {
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			return ConstFloat(f), nil
		}
	}
	if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return ConstInt(v), nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil { // NaN, Inf
		return ConstFloat(f), nil
	}
	return Operand{}, fmt.Errorf("bad operand %q", tok)
}

func opcodeByName(name string) (Opcode, bool) {
	for o := Opcode(1); o < numOpcodes; o++ {
		if opTable[o].Name == name {
			return o, true
		}
	}
	return OpInvalid, false
}
