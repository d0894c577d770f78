package mclang

import (
	"fmt"

	"mcpart/internal/ir"
)

// SymKind says what an identifier resolved to.
type SymKind int

// Identifier resolution kinds.
const (
	SymLocal SymKind = iota
	SymParam
	SymGlobalScalar
	SymGlobalArray
)

// Info is the result of semantic analysis: the type-annotated program plus
// resolution maps consumed by the lowering pass.
type Info struct {
	Prog *Program

	Globals map[string]*GlobalDecl
	Funcs   map[string]*FuncDecl

	// Identifier resolution, keyed by AST node.
	Kind     map[*IdentExpr]SymKind
	LocalOf  map[*IdentExpr]*VarDeclStmt
	ParamOf  map[*IdentExpr]int
	GlobalOf map[*IdentExpr]*GlobalDecl

	// AddrGlobal resolves &g / &g[i] to the referenced global.
	AddrGlobal map[*AddrExpr]*GlobalDecl

	// Malloc site numbering, dense per module, with diagnostic names.
	MallocSiteNames []string
}

type checker struct {
	info    *Info
	fn      *FuncDecl
	scopes  []map[string]*VarDeclStmt
	params  map[string]int
	loopLvl int
}

// Analyze type-checks the program, resolves identifiers, folds global
// initializers, and numbers malloc sites.
func Analyze(prog *Program) (*Info, error) {
	info := &Info{
		Prog:       prog,
		Globals:    map[string]*GlobalDecl{},
		Funcs:      map[string]*FuncDecl{},
		Kind:       map[*IdentExpr]SymKind{},
		LocalOf:    map[*IdentExpr]*VarDeclStmt{},
		ParamOf:    map[*IdentExpr]int{},
		GlobalOf:   map[*IdentExpr]*GlobalDecl{},
		AddrGlobal: map[*AddrExpr]*GlobalDecl{},
	}
	for _, g := range prog.Globals {
		if info.Globals[g.Name] != nil {
			return nil, errf(g.Pos, "global %q redeclared", g.Name)
		}
		info.Globals[g.Name] = g
		if err := foldGlobalInit(g); err != nil {
			return nil, err
		}
	}
	for _, f := range prog.Funcs {
		if info.Funcs[f.Name] != nil {
			return nil, errf(f.Pos, "function %q redeclared", f.Name)
		}
		if info.Globals[f.Name] != nil {
			return nil, errf(f.Pos, "function %q collides with a global", f.Name)
		}
		info.Funcs[f.Name] = f
	}
	if info.Funcs["main"] == nil {
		return nil, errf(Pos{1, 1}, "program has no main function")
	}
	for _, f := range prog.Funcs {
		c := &checker{info: info, fn: f, params: map[string]int{}}
		seen := map[string]bool{}
		for i, p := range f.Params {
			if seen[p.Name] {
				return nil, errf(p.Pos, "parameter %q redeclared", p.Name)
			}
			seen[p.Name] = true
			c.params[p.Name] = i
		}
		c.push()
		if err := c.stmt(f.Body); err != nil {
			return nil, err
		}
		c.pop()
	}
	return info, nil
}

func foldGlobalInit(g *GlobalDecl) error {
	if !g.HasInit {
		return nil
	}
	if int64(len(g.InitExprs)) > g.Count {
		return errf(g.Pos, "global %q: %d initializers for %d elements",
			g.Name, len(g.InitExprs), g.Count)
	}
	for _, e := range g.InitExprs {
		v, err := constEval(e)
		if err != nil {
			return err
		}
		if g.Elem.Kind == TypeFloat {
			if v.Kind != ir.OperFloat {
				v.Float = float64(v.Int)
			}
			g.InitFlts = append(g.InitFlts, v.Float)
		} else {
			if v.Kind == ir.OperFloat {
				return errf(e.Position(), "global %q: float initializer for int element", g.Name)
			}
			g.InitInts = append(g.InitInts, v.Int)
		}
	}
	return nil
}

// constEval evaluates a constant expression (literals, unary minus, and the
// four arithmetic operators over constants) through the opcode table.
func constEval(e Expr) (ir.Operand, error) {
	switch x := e.(type) {
	case *IntLit:
		return ir.ConstInt(x.Val), nil
	case *FloatLit:
		return ir.ConstFloat(x.Val), nil
	case *UnaryExpr:
		if x.Op != TokMinus {
			return ir.Operand{}, errf(x.Pos, "initializer must be constant")
		}
		v, err := constEval(x.X)
		v.Int, v.Float = -v.Int, -v.Float
		return v, err
	case *BinaryExpr:
		l, err := constEval(x.L)
		if err != nil {
			return ir.Operand{}, err
		}
		r, err := constEval(x.R)
		if err != nil {
			return ir.Operand{}, err
		}
		if l.Kind != r.Kind {
			return ir.Operand{}, errf(x.Pos, "mixed int/float constant expression")
		}
		ops := intBinOp
		if l.Kind == ir.OperFloat {
			ops = floatBinOp
		}
		switch x.Op {
		case TokPlus, TokMinus, TokStar, TokSlash:
			v, ok := ops[x.Op].Info().Eval(l, r)
			if !ok {
				return ir.Operand{}, errf(x.Pos, "constant division by zero")
			}
			return v, nil
		}
		return ir.Operand{}, errf(x.Pos, "operator %s not allowed in constant expression", x.Op)
	}
	return ir.Operand{}, errf(e.Position(), "initializer must be constant")
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]*VarDeclStmt{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookupLocal(name string) *VarDeclStmt {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if d := c.scopes[i][name]; d != nil {
			return d
		}
	}
	return nil
}

func (c *checker) stmt(s Stmt) error {
	switch x := s.(type) {
	case *BlockStmt:
		c.push()
		defer c.pop()
		for _, st := range x.Stmts {
			if err := c.stmt(st); err != nil {
				return err
			}
		}
	case *VarDeclStmt:
		if x.Type.Kind == TypeVoid {
			return errf(x.Pos, "variable %q cannot be void", x.Name)
		}
		if c.scopes[len(c.scopes)-1][x.Name] != nil {
			return errf(x.Pos, "variable %q redeclared in this scope", x.Name)
		}
		if x.Init != nil {
			t, err := c.expr(x.Init)
			if err != nil {
				return err
			}
			if !t.Equal(x.Type) {
				return errf(x.Pos, "cannot initialize %s %q with %s", x.Type, x.Name, t)
			}
		}
		c.scopes[len(c.scopes)-1][x.Name] = x
	case *AssignStmt:
		lt, err := c.lvalue(x.LHS)
		if err != nil {
			return err
		}
		rt, err := c.expr(x.RHS)
		if err != nil {
			return err
		}
		if !lt.Equal(rt) {
			return errf(x.Pos, "cannot assign %s to %s", rt, lt)
		}
	case *ExprStmt:
		if _, err := c.expr(x.X); err != nil {
			return err
		}
	case *IfStmt:
		if err := c.cond(x.Cond); err != nil {
			return err
		}
		if err := c.stmt(x.Then); err != nil {
			return err
		}
		if x.Else != nil {
			return c.stmt(x.Else)
		}
	case *WhileStmt:
		if err := c.cond(x.Cond); err != nil {
			return err
		}
		c.loopLvl++
		defer func() { c.loopLvl-- }()
		return c.stmt(x.Body)
	case *ForStmt:
		c.push()
		defer c.pop()
		if x.Init != nil {
			if err := c.stmt(x.Init); err != nil {
				return err
			}
		}
		if x.Cond != nil {
			if err := c.cond(x.Cond); err != nil {
				return err
			}
		}
		if x.Post != nil {
			if err := c.stmt(x.Post); err != nil {
				return err
			}
		}
		c.loopLvl++
		defer func() { c.loopLvl-- }()
		return c.stmt(x.Body)
	case *ReturnStmt:
		if x.X == nil {
			if c.fn.Ret.Kind != TypeVoid {
				return errf(x.Pos, "function %q must return %s", c.fn.Name, c.fn.Ret)
			}
			return nil
		}
		if c.fn.Ret.Kind == TypeVoid {
			return errf(x.Pos, "void function %q returns a value", c.fn.Name)
		}
		t, err := c.expr(x.X)
		if err != nil {
			return err
		}
		if !t.Equal(c.fn.Ret) {
			return errf(x.Pos, "return %s from function returning %s", t, c.fn.Ret)
		}
	case *BreakStmt:
		if c.loopLvl == 0 {
			return errf(x.Pos, "break outside loop")
		}
	case *ContinueStmt:
		if c.loopLvl == 0 {
			return errf(x.Pos, "continue outside loop")
		}
	default:
		return fmt.Errorf("sema: unknown statement %T", s)
	}
	return nil
}

func (c *checker) cond(e Expr) error {
	t, err := c.expr(e)
	if err != nil {
		return err
	}
	if t.Kind != TypeInt {
		return errf(e.Position(), "condition must be int, got %s", t)
	}
	return nil
}

// lvalue checks an assignable expression: a scalar variable, *p, g[i], p[i].
func (c *checker) lvalue(e Expr) (*Type, error) {
	switch x := e.(type) {
	case *IdentExpr:
		t, err := c.expr(x)
		if err != nil {
			return nil, err
		}
		if c.info.Kind[x] == SymGlobalArray {
			return nil, errf(x.Pos, "cannot assign to array %q", x.Name)
		}
		return t, nil
	case *IndexExpr, *DerefExpr:
		return c.expr(e)
	}
	return nil, errf(e.Position(), "expression is not assignable")
}

func (c *checker) expr(e Expr) (*Type, error) {
	t, err := c.exprInner(e)
	if err != nil {
		return nil, err
	}
	e.setType(t)
	return t, nil
}

func (c *checker) exprInner(e Expr) (*Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return IntType, nil
	case *FloatLit:
		return FloatType, nil
	case *IdentExpr:
		if d := c.lookupLocal(x.Name); d != nil {
			c.info.Kind[x] = SymLocal
			c.info.LocalOf[x] = d
			return d.Type, nil
		}
		if i, ok := c.params[x.Name]; ok {
			c.info.Kind[x] = SymParam
			c.info.ParamOf[x] = i
			return c.fn.Params[i].Type, nil
		}
		if g := c.info.Globals[x.Name]; g != nil {
			c.info.GlobalOf[x] = g
			if g.IsArray {
				c.info.Kind[x] = SymGlobalArray
				return PtrTo(g.Elem), nil // array decays to pointer
			}
			c.info.Kind[x] = SymGlobalScalar
			return g.Elem, nil
		}
		return nil, errf(x.Pos, "undefined identifier %q", x.Name)
	case *IndexExpr:
		bt, err := c.expr(x.Base)
		if err != nil {
			return nil, err
		}
		if !bt.IsPtr() {
			return nil, errf(x.Pos, "cannot index %s", bt)
		}
		it, err := c.expr(x.Index)
		if err != nil {
			return nil, err
		}
		if it.Kind != TypeInt {
			return nil, errf(x.Pos, "array index must be int, got %s", it)
		}
		return bt.Elem, nil
	case *DerefExpr:
		t, err := c.expr(x.X)
		if err != nil {
			return nil, err
		}
		if !t.IsPtr() {
			return nil, errf(x.Pos, "cannot dereference %s", t)
		}
		return t.Elem, nil
	case *AddrExpr:
		switch inner := x.X.(type) {
		case *IdentExpr:
			g := c.info.Globals[inner.Name]
			if g == nil {
				return nil, errf(x.Pos, "can only take the address of a global, %q is not one", inner.Name)
			}
			if _, err := c.expr(inner); err != nil {
				return nil, err
			}
			c.info.AddrGlobal[x] = g
			return PtrTo(g.Elem), nil
		case *IndexExpr:
			t, err := c.expr(inner)
			if err != nil {
				return nil, err
			}
			return PtrTo(t), nil
		}
		return nil, errf(x.Pos, "cannot take the address of this expression")
	case *UnaryExpr:
		t, err := c.expr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case TokMinus:
			if t.Kind != TypeInt && t.Kind != TypeFloat {
				return nil, errf(x.Pos, "cannot negate %s", t)
			}
			return t, nil
		case TokNot:
			if t.Kind != TypeInt {
				return nil, errf(x.Pos, "operand of ! must be int, got %s", t)
			}
			return IntType, nil
		}
		return nil, errf(x.Pos, "bad unary operator")
	case *BinaryExpr:
		return c.binary(x)
	case *CallExpr:
		f := c.info.Funcs[x.Name]
		if f == nil {
			return nil, errf(x.Pos, "call of undefined function %q", x.Name)
		}
		if len(x.Args) != len(f.Params) {
			return nil, errf(x.Pos, "%q takes %d arguments, got %d",
				x.Name, len(f.Params), len(x.Args))
		}
		for i, a := range x.Args {
			at, err := c.expr(a)
			if err != nil {
				return nil, err
			}
			if !at.Equal(f.Params[i].Type) {
				return nil, errf(a.Position(), "argument %d of %q: have %s, want %s",
					i+1, x.Name, at, f.Params[i].Type)
			}
		}
		return f.Ret, nil
	case *MallocExpr:
		st, err := c.expr(x.Size)
		if err != nil {
			return nil, err
		}
		if st.Kind != TypeInt {
			return nil, errf(x.Pos, "malloc size must be int, got %s", st)
		}
		x.Site = len(c.info.MallocSiteNames)
		c.info.MallocSiteNames = append(c.info.MallocSiteNames,
			fmt.Sprintf("malloc@%s:%d", c.fn.Name, x.Site))
		return PtrTo(IntType), nil
	case *CastExpr:
		t, err := c.expr(x.X)
		if err != nil {
			return nil, err
		}
		switch {
		case x.To.Kind == TypeInt && t.Kind == TypeFloat,
			x.To.Kind == TypeFloat && t.Kind == TypeInt,
			x.To.Kind == TypeInt && t.Kind == TypeInt,
			x.To.Kind == TypeFloat && t.Kind == TypeFloat:
			return x.To, nil
		case x.To.IsPtr() && t.IsPtr():
			return x.To, nil
		}
		return nil, errf(x.Pos, "cannot cast %s to %s", t, x.To)
	}
	return nil, fmt.Errorf("sema: unknown expression %T", e)
}

func (c *checker) binary(x *BinaryExpr) (*Type, error) {
	lt, err := c.expr(x.L)
	if err != nil {
		return nil, err
	}
	rt, err := c.expr(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case TokAndAnd, TokOrOr:
		if lt.Kind != TypeInt || rt.Kind != TypeInt {
			return nil, errf(x.Pos, "operands of %s must be int", x.Op)
		}
		return IntType, nil
	case TokPercent, TokShl, TokShr, TokAmp, TokPipe, TokCaret:
		if lt.Kind != TypeInt || rt.Kind != TypeInt {
			return nil, errf(x.Pos, "operands of %s must be int, have %s and %s", x.Op, lt, rt)
		}
		return IntType, nil
	case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
		if !lt.Equal(rt) {
			return nil, errf(x.Pos, "comparison of %s with %s", lt, rt)
		}
		if lt.IsPtr() && x.Op != TokEq && x.Op != TokNe {
			return nil, errf(x.Pos, "pointers support only == and !=")
		}
		return IntType, nil
	case TokPlus, TokMinus:
		// Pointer arithmetic: ptr ± int (element-scaled).
		if lt.IsPtr() && rt.Kind == TypeInt {
			return lt, nil
		}
		if x.Op == TokPlus && lt.Kind == TypeInt && rt.IsPtr() {
			return rt, nil
		}
		fallthrough
	case TokStar, TokSlash:
		if lt.Kind == TypeInt && rt.Kind == TypeInt {
			return IntType, nil
		}
		if lt.Kind == TypeFloat && rt.Kind == TypeFloat {
			return FloatType, nil
		}
		return nil, errf(x.Pos, "invalid operands of %s: %s and %s (cast explicitly)", x.Op, lt, rt)
	}
	return nil, errf(x.Pos, "bad binary operator %s", x.Op)
}
