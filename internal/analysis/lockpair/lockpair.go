// Package lockpair verifies that every VFS tree-lock acquisition is
// paired with a release on all paths out of the function that acquired
// it. A lockTree without a deferred or explicit unlockTree on some return
// path leaks the lock and wedges every later writer.
//
// The analysis is a per-function CFG dataflow over the same lock
// vocabulary lockorder uses (detected by shape in the lock package). In
// contrast to lockorder, a deferred release discharges the acquisition
// immediately — `fs.rlockTree(); defer fs.runlockTree()` is the
// canonical correct pairing — because defers run on every exit,
// including panics.
//
// Functions are allowed to acquire in one function and release in a
// callee only when the whole pattern stays inside one body (the
// analyzer is intra-procedural); helpers that intentionally return
// while holding a lock (the primitives themselves, or functions whose
// name says so) are skipped.
package lockpair

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"yanc/internal/analysis/internal/directive"
	"yanc/internal/analysis/internal/lockset"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockpair",
	Doc: "check that every tree lock acquisition in the lock package is released on all paths " +
		"(early returns and panics must not leak a lock)",
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	info := lockset.Find(pass)
	if info == nil {
		return nil, nil // only the lock package defines pairing obligations
	}
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	c := &checker{pass: pass, info: info, cfgs: cfgs}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if _, isPrimitive := info.Primitives[obj]; isPrimitive {
				continue // primitives return holding/releasing by design
			}
			if g := cfgs.FuncDecl(fd); g != nil {
				c.check(g, fd.Name.Name)
			}
		}
		// Standalone literals: each body must balance on its own. Literals
		// are checked in place; acquisitions made by the enclosing function
		// are not visible inside, which matches the discipline — a closure
		// must not release a lock it did not take unless the author says so.
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				if g := cfgs.FuncLit(lit); g != nil {
					c.check(g, "func literal")
				}
			}
			return true
		})
	}
	return nil, nil
}

// state tracks the outstanding (undischarged) acquisitions along a path.
// Counters never go negative: releases beyond zero are attributed to
// locks taken by a caller (e.g. a closure releasing in an error path on
// behalf of its parent) and are ignored rather than reported.
type state struct{ tree int }

func (s state) merge(o state) state {
	return state{tree: max(s.tree, o.tree)}
}

type checker struct {
	pass *analysis.Pass
	info *lockset.Info
	cfgs *ctrlflow.CFGs
}

// check runs the leak dataflow over one function CFG. Any live exit
// block with outstanding acquisitions is a leak; the diagnostic points
// at the last acquisition site feeding that exit.
func (c *checker) check(g *cfg.CFG, name string) {
	if len(g.Blocks) == 0 {
		return
	}
	type blockState struct {
		st      state
		lastAcq ast.Node // most recent acquisition reaching this point
		seen    bool
	}
	in := make([]blockState, len(g.Blocks))
	in[0].seen = true
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if !in[b.Index].seen {
				continue
			}
			st := in[b.Index].st
			last := in[b.Index].lastAcq
			for _, node := range b.Nodes {
				c.transfer(node, &st, &last)
			}
			if len(b.Succs) == 0 {
				if b.Live && st.tree > 0 && last != nil {
					c.reportLeak(last, name, b)
					// Report once per function: clear so fixpoint converges
					// without duplicate diagnostics.
					return
				}
				continue
			}
			for _, succ := range b.Succs {
				next := blockState{st: st, lastAcq: last, seen: true}
				cur := in[succ.Index]
				if !cur.seen {
					in[succ.Index] = next
					changed = true
					continue
				}
				merged := cur.st.merge(st)
				if merged != cur.st {
					cur.st = merged
					if last != nil {
						cur.lastAcq = last
					}
					in[succ.Index] = cur
					changed = true
				}
			}
		}
	}
}

// transfer applies one CFG node's lock effects to st. A defer of a
// release discharges immediately (defers run on all exits); an IIFE is
// folded through so acquire-in-closure/release-in-closure balances.
func (c *checker) transfer(node ast.Node, st *state, last *ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // checked standalone
		case *ast.DeferStmt:
			c.applyCall(n.Call, st, last)
			return false
		case *ast.CallExpr:
			c.applyCall(n, st, last)
			return false
		}
		return true
	})
}

func (c *checker) applyCall(call *ast.CallExpr, st *state, last *ast.Node) {
	c.transfer(call.Fun, st, last)
	for _, arg := range call.Args {
		c.transfer(arg, st, last)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// Immediately invoked literal: its own body is checked standalone,
		// but releases it performs on the enclosing function's locks (the
		// openSlow error-path shape) cannot be tracked intra-procedurally.
		// Treat the IIFE as a no-op here; the enclosing function's explicit
		// unlock after the call keeps the common shape balanced.
		_ = lit
		return
	}
	switch c.info.Classify(c.pass, call) {
	case lockset.OpLockTree, lockset.OpRLockTree:
		st.tree++
		*last = call
	case lockset.OpUnlockTree, lockset.OpRUnlockTree:
		if st.tree > 0 {
			st.tree--
		}
	}
}

func (c *checker) reportLeak(at ast.Node, fn string, exit *cfg.Block) {
	pos := at.Pos()
	if f := directive.FileFor(c.pass, pos); f != nil && directive.Allows(c.pass, f, pos, "lockpair") {
		return
	}
	where := describeExit(exit)
	c.pass.Reportf(pos, "tree lock acquired here is not released on all paths out of %s (%s): add a defer or release before the exit", fn, where)
}

func describeExit(b *cfg.Block) string {
	for _, n := range b.Nodes {
		if _, ok := n.(*ast.ReturnStmt); ok {
			return "leaks at a return"
		}
	}
	if b.Kind == cfg.KindBody {
		return "leaks at function end"
	}
	return "leaks at an early exit"
}
