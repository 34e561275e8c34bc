// Package txescape enforces the lifetime and non-blocking contract of
// VFS transaction handles. A *Tx handed to a WithTx/ReadTx callback is
// a borrowed view of the tree under the tree lock: it is valid only for
// the dynamic extent of the callback, and the callback runs inside the
// whole-tree critical section. Two families of bugs follow — the class
// that froze the event-delivery rework — and both are value-flow
// properties this analyzer checks per callback:
//
//  1. Escape: the handle (or any local alias of it) must not outlive
//     the callback. Flagged: stores through fields, globals, map/slice
//     elements or pointers; sends on channels; appends; assignment to a
//     variable declared OUTSIDE the callback; capture by a goroutine
//     launched inside the callback. Passing the handle down a call
//     chain is fine — that is borrowing, and the callee returns before
//     the callback does.
//
//  2. Blocking while held: the callback body must not park the
//     goroutine while the tree lock is held. Flagged: channel sends and
//     receives (selects with a default clause are non-blocking and
//     allowed), select statements, time.Sleep, sync.WaitGroup.Wait and
//     sync.Cond.Wait, calls to methods named Submit (the mux/ring
//     enqueue vocabulary), and direct net.* I/O.
//
// The check is shape-based so fixtures can replicate it: any call to a
// method named WithTx or ReadTx whose argument is a function literal
// taking a single *Tx (a pointer to a named type called Tx) parameter.
// Suppress a deliberate violation with //yancvet:allow txescape <why>.
package txescape

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"yanc/internal/analysis/internal/directive"
	"yanc/internal/analysis/internal/lockset"
)

var Analyzer = &analysis.Analyzer{
	Name: "txescape",
	Doc: "check that vfs.Tx handles do not outlive their WithTx/ReadTx callback " +
		"and that callbacks do not block inside the tree-lock critical section",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit, txParam := txCallback(pass, call)
			if lit == nil {
				return true
			}
			c := &checker{pass: pass, file: file, lit: lit}
			c.check(txParam)
			return true
		})
	}
	return nil, nil
}

// txCallback recognizes fs.WithTx(func(tx *Tx) error {...}) shapes and
// returns the callback literal and its Tx parameter object.
func txCallback(pass *analysis.Pass, call *ast.CallExpr) (*ast.FuncLit, *types.Var) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "WithTx" && sel.Sel.Name != "ReadTx") {
		return nil, nil
	}
	if len(call.Args) == 0 {
		return nil, nil
	}
	lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
	if !ok {
		return nil, nil
	}
	ft := lit.Type
	if ft.Params == nil || len(ft.Params.List) != 1 || len(ft.Params.List[0].Names) != 1 {
		return nil, nil
	}
	name := ft.Params.List[0].Names[0]
	v, ok := pass.TypesInfo.Defs[name].(*types.Var)
	if !ok || !isTxPointer(v.Type()) {
		return nil, nil
	}
	return lit, v
}

func isTxPointer(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Tx"
}

type checker struct {
	pass *analysis.Pass
	file *ast.File
	lit  *ast.FuncLit
}

func (c *checker) check(txParam *types.Var) {
	aliases := c.collectAliases(txParam)
	c.checkEscapes(aliases)
	c.checkBlocking(c.lit.Body, false)
}

// collectAliases returns the tx parameter plus every local variable it
// is copied into (t := tx; u := t), to a fixpoint.
func (c *checker) collectAliases(txParam *types.Var) map[*types.Var]bool {
	aliases := map[*types.Var]bool{txParam: true}
	for changed := true; changed; {
		changed = false
		ast.Inspect(c.lit.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !c.isAlias(rhs, aliases) {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = c.pass.TypesInfo.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok && !aliases[v] && c.declaredInside(v) {
					aliases[v] = true
					changed = true
				}
			}
			return true
		})
	}
	return aliases
}

// isAlias reports whether e evaluates to the tx handle itself.
func (c *checker) isAlias(e ast.Expr, aliases map[*types.Var]bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		v, ok := c.pass.TypesInfo.Uses[e].(*types.Var)
		return ok && aliases[v]
	case *ast.ParenExpr:
		return c.isAlias(e.X, aliases)
	}
	return false
}

// declaredInside reports whether v's declaration lies within the
// callback literal.
func (c *checker) declaredInside(v *types.Var) bool {
	return v.Pos() >= c.lit.Pos() && v.Pos() < c.lit.End()
}

func (c *checker) checkEscapes(aliases map[*types.Var]bool) {
	ast.Inspect(c.lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !c.isAlias(rhs, aliases) {
					continue
				}
				lhs := n.Lhs[i]
				if id, ok := lhs.(*ast.Ident); ok {
					if id.Name == "_" {
						continue
					}
					obj := c.pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = c.pass.TypesInfo.Uses[id]
					}
					if v, ok := obj.(*types.Var); ok {
						if lockset.IsGlobal(v) {
							c.reportf(n.Pos(), "Tx handle stored to package variable %s: it outlives the WithTx callback and the tree lock", v.Name())
						} else if !c.declaredInside(v) {
							c.reportf(n.Pos(), "Tx handle assigned to %s declared outside the callback: any use after WithTx returns races the tree lock", v.Name())
						}
						continue
					}
				}
				// Field, index, or pointer store: the handle escapes to the
				// heap no matter who owns the target.
				c.reportf(n.Pos(), "Tx handle stored through a field/element/pointer: it outlives the WithTx callback")
			}
		case *ast.SendStmt:
			if c.isAlias(n.Value, aliases) {
				c.reportf(n.Pos(), "Tx handle sent on a channel: the receiver would use it outside the tree lock")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" {
					for _, arg := range n.Args[1:] {
						if c.isAlias(arg, aliases) {
							c.reportf(n.Pos(), "Tx handle appended to a slice: it outlives the WithTx callback")
						}
					}
				}
			}
		case *ast.GoStmt:
			if c.goUsesTx(n, aliases) {
				c.reportf(n.Pos(), "goroutine launched in a WithTx callback captures the Tx handle: it runs after the tree lock is released")
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if c.isAlias(res, aliases) {
					c.reportf(n.Pos(), "Tx handle returned from the callback: it is invalid once WithTx returns")
				}
			}
		}
		return true
	})
}

// goUsesTx reports whether a go statement's call or closure references
// the tx handle.
func (c *checker) goUsesTx(g *ast.GoStmt, aliases map[*types.Var]bool) bool {
	used := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && aliases[v] {
				used = true
			}
		}
		return true
	})
	return used
}

// checkBlocking walks the callback body flagging operations that park
// the goroutine while the tree lock is held. inGo marks subtrees that
// run in a launched goroutine: those do not hold the lock, and the
// launch itself is handled by the escape check.
func (c *checker) checkBlocking(body ast.Node, inGo bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // separate goroutine: not under the lock
		case *ast.SelectStmt:
			if hasDefault(n) {
				return true // non-blocking poll; still walk the clause bodies
			}
			c.reportf(n.Pos(), "select blocks inside the tree-lock critical section")
			return true
		case *ast.SendStmt:
			if !isSelectComm(body, n) {
				c.reportf(n.Pos(), "channel send blocks inside the tree-lock critical section")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !isSelectComm(body, n) {
				c.reportf(n.Pos(), "channel receive blocks inside the tree-lock critical section")
			}
		case *ast.CallExpr:
			c.checkBlockingCall(n)
		}
		return true
	})
}

func (c *checker) checkBlockingCall(call *ast.CallExpr) {
	callee := typeutil.StaticCallee(c.pass.TypesInfo, call)
	if callee == nil {
		// Dynamic call: the only name-level signal we act on is the ring's
		// Submit vocabulary.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Submit" {
			c.reportf(call.Pos(), "Submit inside the tree-lock critical section: the ring may be full and block under the tree lock")
		}
		return
	}
	pkg := callee.Pkg()
	name := callee.Name()
	switch {
	case name == "Submit":
		c.reportf(call.Pos(), "Submit inside the tree-lock critical section: the ring may be full and block under the tree lock")
	case pkg != nil && pkg.Path() == "time" && name == "Sleep":
		c.reportf(call.Pos(), "time.Sleep inside the tree-lock critical section")
	case pkg != nil && pkg.Path() == "sync" && name == "Wait":
		c.reportf(call.Pos(), "sync %s.Wait blocks inside the tree-lock critical section", recvTypeName(callee))
	case pkg != nil && (pkg.Path() == "net" || pkg.Path() == "net/http"):
		c.reportf(call.Pos(), "network I/O (%s.%s) inside the tree-lock critical section", pkg.Path(), name)
	}
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "?"
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isSelectComm reports whether op is the comm statement of some select
// clause. Comm ops of a default-bearing select are non-blocking; comm
// ops of a blocking select are covered by that select's own diagnostic.
func isSelectComm(root ast.Node, op ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			comm := cc.Comm
			if comm == op {
				found = true
				continue
			}
			// recv shapes: `v := <-ch` / `<-ch` as expr stmt
			switch s := comm.(type) {
			case *ast.AssignStmt:
				for _, r := range s.Rhs {
					if r == op {
						found = true
					}
				}
			case *ast.ExprStmt:
				if s.X == op {
					found = true
				}
			}
		}
		return true
	})
	return found
}

func (c *checker) reportf(pos token.Pos, format string, args ...interface{}) {
	if directive.Allows(c.pass, c.file, pos, "txescape") {
		return
	}
	c.pass.Reportf(pos, format, args...)
}
