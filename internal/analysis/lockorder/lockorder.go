// Package lockorder enforces the VFS tree-lock rules documented in
// internal/vfs/lock.go (DESIGN.md §8) at compile time — rule 1, the
// immutability of what is published, is snapshotpub's:
//
//  2. Synthetic providers run outside all tree locks, so invoking a
//     provider while the tree lock is held is a self-deadlock (the PR 3
//     Tx.ReadFile/Synthetic.Read bug this analyzer exists to prevent);
//  3. code running under the tree lock (Tx methods, DirSemantics hooks,
//     WithTx/ReadTx callbacks) must not call a Proc-level entry point
//     that re-acquires the tree lock — sync.RWMutex is not reentrant;
//
// and every acquisition is released on all paths out of the function
// that took it: an early return that leaks the lock wedges every later
// writer.
//
// The lock package (internal/vfs) is recognized by shape — any package
// declaring lockTree and rlockTree methods on one receiver — and is
// checked intra-procedurally with one CFG dataflow plus an in-package
// static call graph. The dataflow carries two counters: held, for
// re-entry, keeps a deferred release held until return; owed, for
// leaks, discharges it at once (defers run on every exit, panics
// included). The analyzer then exports facts (which exported functions
// acquire the tree lock, which run callbacks under it) so that every
// downstream package's DirSemantics hooks and WithTx/ReadTx callbacks
// are checked against rule 3 as well.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"

	"yanc/internal/analysis/internal/directive"
	"yanc/internal/analysis/internal/lockset"
)

// AcquiresTreeLock marks a function that (transitively) acquires the VFS
// tree lock in some mode. Downstream hook code must not call it.
type AcquiresTreeLock struct{}

// IsLockPackage marks the package that defines the VFS locking
// vocabulary.
type IsLockPackage struct{}

// CallsParamUnderTreeLock marks a function that invokes one or more of
// its function-typed parameters while holding the tree lock (WithTx,
// ReadTx): arguments passed at Params run under the lock.
type CallsParamUnderTreeLock struct{ Params []int }

func (*AcquiresTreeLock) AFact()        {}
func (*IsLockPackage) AFact()           {}
func (*CallsParamUnderTreeLock) AFact() {}

func (*AcquiresTreeLock) String() string { return "acquiresTreeLock" }
func (*IsLockPackage) String() string    { return "isLockPackage" }
func (f *CallsParamUnderTreeLock) String() string {
	return fmt.Sprintf("callsParamUnderTreeLock%v", f.Params)
}

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "check the VFS locking rules: no tree-lock acquisition under itself, " +
		"no Proc-level re-entry or Synthetic provider call under the tree lock, " +
		"and every acquisition released on all paths",
	Requires:  []*analysis.Analyzer{ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{(*AcquiresTreeLock)(nil), (*IsLockPackage)(nil), (*CallsParamUnderTreeLock)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	info := lockset.Find(pass)
	if info != nil {
		runLockPackage(pass, info)
	} else {
		runConsumer(pass)
	}
	return nil, nil
}

// lockState is the tree-lock state at a program point. held counts the
// acquisitions (any mode) still in force, a deferred release keeping
// its lock held to the end of the function; owed counts those with no
// release yet, explicit or deferred, and acq is the site of the latest
// one still owed. Values merge by max, so a lock held on any path into
// a join counts as held. Releases beyond zero are attributed to a
// caller's lock and ignored.
type lockState struct {
	held, owed int
	acq        token.Pos
}

func (s lockState) merge(o lockState) lockState {
	return lockState{held: max(s.held, o.held), owed: max(s.owed, o.owed), acq: max(s.acq, o.acq)}
}

// checker walks one function's CFG tracking lockState.
type checker struct {
	pass     *analysis.Pass
	info     *lockset.Info
	cfgs     *ctrlflow.CFGs
	treeAcq  map[*types.Func]bool // functions that transitively acquire the tree lock
	params   map[*types.Var]int   // func-typed params of the current decl
	lockedPs map[int]bool         // params called while the tree lock was held
	reported map[token.Pos]bool
	inlined  map[*ast.FuncLit]bool // literals analyzed at their (immediate) call site
}

func runLockPackage(pass *analysis.Pass, info *lockset.Info) {
	graph := lockset.BuildGraph(pass)
	treeTargets := map[*types.Func]bool{}
	for fn, op := range info.Primitives {
		if op == lockset.OpLockTree || op == lockset.OpRLockTree {
			treeTargets[fn] = true
		}
	}
	c := &checker{
		pass:     pass,
		info:     info,
		cfgs:     pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs),
		treeAcq:  graph.Reaches(treeTargets),
		reported: map[token.Pos]bool{},
		inlined:  map[*ast.FuncLit]bool{},
	}

	pass.ExportPackageFact(&IsLockPackage{})
	for fn := range c.treeAcq {
		fn := fn
		pass.ExportObjectFact(fn, &AcquiresTreeLock{})
	}

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
				continue // the primitives manipulate the locks by definition
			}
			init := lockState{}
			if recvIsTx(obj, info) {
				// Tx methods run with the tree lock held by contract.
				init.held = 1
			}
			c.params = map[*types.Var]int{}
			c.lockedPs = map[int]bool{}
			if sig, ok := obj.Type().(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					p := sig.Params().At(i)
					if _, isFunc := p.Type().Underlying().(*types.Signature); isFunc {
						c.params[p] = i
					}
				}
			}
			if g := c.cfgs.FuncDecl(fd); g != nil {
				c.checkFunc(g, init, fd.Name.Name)
			}
			if len(c.lockedPs) > 0 {
				fact := &CallsParamUnderTreeLock{}
				for i := range c.lockedPs {
					fact.Params = append(fact.Params, i)
				}
				slices.Sort(fact.Params)
				pass.ExportObjectFact(obj, fact)
			}
		}
	}

	// Function literals that were not analyzed inline at a call site run
	// on their own (state: no locks held) — e.g. closures stored in
	// fields or passed to other packages.
	c.params = nil
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && !c.inlined[lit] {
				if g := c.cfgs.FuncLit(lit); g != nil {
					c.checkFunc(g, lockState{}, "func literal")
				}
			}
			return true
		})
	}
}

// checkFunc runs the dataflow over a whole function body and reports a
// leak, once, when a live exit still owes a release.
func (c *checker) checkFunc(g *cfg.CFG, init lockState, name string) {
	if exit, leak := c.analyzeCFG(g, init); leak != nil {
		reportAt(c.pass, exit.acq, fmt.Sprintf("tree lock acquired here is not released on all paths out of %s (%s): add a defer or release before the exit", name, describeExit(leak)))
	}
}

// analyzeCFG runs the lock-state dataflow over one function's CFG and
// returns the merged state at its live exits and the first live exit
// that still owes a release (nil if none).
func (c *checker) analyzeCFG(g *cfg.CFG, init lockState) (lockState, *cfg.Block) {
	in := make([]lockState, len(g.Blocks))
	seen := make([]bool, len(g.Blocks))
	if len(g.Blocks) == 0 {
		return init, nil
	}
	in[0], seen[0] = init, true
	exit := lockState{}
	sawExit := false
	var leak *cfg.Block
	// Iterate to fixpoint; lock states are tiny and CFGs are small.
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if !seen[b.Index] {
				continue
			}
			st := in[b.Index]
			for _, node := range b.Nodes {
				c.walk(node, &st)
			}
			if len(b.Succs) == 0 {
				if b.Live {
					exit = exit.merge(st)
					sawExit = true
					if st.owed > 0 && leak == nil {
						leak = b
					}
				}
				continue
			}
			for _, succ := range b.Succs {
				if !seen[succ.Index] {
					seen[succ.Index] = true
					in[succ.Index] = st
					changed = true
				} else if merged := in[succ.Index].merge(st); merged != in[succ.Index] {
					in[succ.Index] = merged
					changed = true
				}
			}
		}
	}
	if !sawExit {
		return init, nil
	}
	return exit, leak
}

// describeExit says how a leaking exit block leaves the function.
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

// walk visits node in approximate evaluation order, updating st and
// reporting violations at call sites.
func (c *checker) walk(node ast.Node, st *lockState) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Not invoked here: analyzed standalone later.
			return false
		case *ast.DeferStmt:
			c.visitCall(n.Call, st, true)
			return false
		case *ast.CallExpr:
			c.visitCall(n, st, false)
			return false
		}
		return true
	})
}

// visitCall processes one call: arguments first, then the call's own
// effect. A deferred release pays what is owed but leaves the lock held
// until the function returns.
func (c *checker) visitCall(call *ast.CallExpr, st *lockState, deferred bool) {
	c.walk(call.Fun, st) // selector base may contain calls
	for _, arg := range call.Args {
		c.walk(arg, st)
	}

	// Immediately invoked literal: its body runs here, under the current
	// state. Deferred literals run at return, when every lock acquired
	// without a pending release is still held — same state, conservatively.
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		c.inlined[lit] = true
		if g := c.cfgs.FuncLit(lit); g != nil {
			*st, _ = c.analyzeCFG(g, *st)
		}
		return
	}

	switch c.info.Classify(c.pass, call) {
	case lockset.OpLockTree, lockset.OpRLockTree:
		if st.held > 0 {
			c.report(call, "tree lock acquired while the tree lock is already held (sync.RWMutex is not reentrant; lock.go rule 3)")
		}
		st.held++
		st.owed++
		st.acq = call.Pos()
		return
	case lockset.OpUnlockTree, lockset.OpRUnlockTree:
		if !deferred && st.held > 0 {
			st.held--
		}
		if st.owed > 0 {
			st.owed--
			if st.owed == 0 {
				st.acq = token.NoPos
			}
		}
		return
	}

	if name, ok := c.info.IsSyntheticProviderCall(c.pass, call); ok {
		if st.held > 0 {
			c.report(call, fmt.Sprintf("%s provider invoked under the tree lock: providers may perform Proc I/O and must run outside all tree locks (lock.go rule 2; the PR 3 Tx.ReadFile self-deadlock)", name))
		}
		return
	}

	if callee := typeutil.StaticCallee(c.pass.TypesInfo, call); callee != nil && callee.Pkg() == c.pass.Pkg {
		if st.held > 0 && c.treeAcq[callee] {
			c.report(call, fmt.Sprintf("call to %s may acquire the tree lock, but the tree lock is already held (lock.go rule 3: use the Tx)", callee.Name()))
		}
	}

	// A function-typed parameter invoked under the tree lock: record it so
	// callers' arguments are checked as under-lock callbacks (WithTx).
	if st.held > 0 && c.params != nil {
		if id, ok := call.Fun.(*ast.Ident); ok {
			if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
				if idx, ok := c.params[v]; ok {
					c.lockedPs[idx] = true
				}
			}
		}
	}
}

func (c *checker) report(call *ast.CallExpr, msg string) {
	if c.reported[call.Lparen] {
		return
	}
	c.reported[call.Lparen] = true
	reportAt(c.pass, call.Pos(), msg)
}

// ---- consumer packages: hooks and under-lock callbacks ----

// runConsumer checks rule 3 in packages that use a lock package: code
// bound as DirSemantics hooks, or passed as WithTx/ReadTx callbacks,
// must never call a function that acquires the tree lock.
func runConsumer(pass *analysis.Pass) {
	lockPkgs := map[*types.Package]bool{}
	for _, imp := range pass.Pkg.Imports() {
		if pass.ImportPackageFact(imp, &IsLockPackage{}) {
			lockPkgs[imp] = true
		}
	}
	if len(lockPkgs) == 0 {
		return
	}
	semTypes := map[types.Type]bool{}
	for p := range lockPkgs {
		if tn, ok := p.Scope().Lookup("DirSemantics").(*types.TypeName); ok {
			semTypes[tn.Type()] = true
		}
	}

	graph := lockset.BuildGraph(pass)
	type root struct {
		node lockset.Node
		desc string
	}
	var roots []root
	addRoot := func(expr ast.Expr, desc string) {
		switch e := expr.(type) {
		case *ast.FuncLit:
			roots = append(roots, root{lockset.LitNode(e), desc})
			return
		}
		// A named function or method value: if it is local, walk its body;
		// if it is from the lock package itself, check its fact directly.
		var obj types.Object
		switch e := expr.(type) {
		case *ast.Ident:
			obj = pass.TypesInfo.Uses[e]
		case *ast.SelectorExpr:
			obj = pass.TypesInfo.Uses[e.Sel]
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		if fn.Pkg() == pass.Pkg {
			if node, ok := graph.Decls[fn]; ok {
				roots = append(roots, root{node, desc})
			}
			return
		}
		if pass.ImportObjectFact(fn, &AcquiresTreeLock{}) {
			reportAt(pass, expr.Pos(), fmt.Sprintf("%s acquires the tree lock but is bound as %s, which runs under the tree lock (lock.go rule 3)", fn.FullName(), desc))
		}
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := pass.TypesInfo.TypeOf(n)
				if t == nil || !semTypes[deref(t)] {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || !isFuncExpr(pass, kv.Value) {
						continue
					}
					addRoot(kv.Value, "DirSemantics."+key.Name)
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || i >= len(n.Rhs) {
						continue
					}
					selection, ok := pass.TypesInfo.Selections[sel]
					if !ok || selection.Kind() != types.FieldVal {
						continue
					}
					if owner := fieldOwner(selection); owner != nil && semTypes[owner] {
						addRoot(n.Rhs[i], "DirSemantics."+sel.Sel.Name)
					}
				}
			case *ast.CallExpr:
				callee := typeutil.StaticCallee(pass.TypesInfo, n)
				if callee == nil {
					return true
				}
				var fact CallsParamUnderTreeLock
				has := false
				if callee.Pkg() == pass.Pkg {
					has = pass.ImportObjectFact(callee, &fact)
				} else {
					has = pass.ImportObjectFact(callee, &fact)
				}
				if !has {
					return true
				}
				for _, idx := range fact.Params {
					if idx < len(n.Args) {
						addRoot(n.Args[idx], fmt.Sprintf("a %s callback (runs under the tree lock)", callee.Name()))
					}
				}
			}
			return true
		})
	}

	// BFS from the roots over the local call graph; any call to a
	// fact-carrying function is a rule-3 violation.
	visited := map[lockset.Node]string{}
	var queue []root
	for _, r := range roots {
		if _, ok := visited[r.node]; !ok {
			visited[r.node] = r.desc
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		body := graph.Bodies[r.node]
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := typeutil.StaticCallee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			if callee.Pkg() == pass.Pkg {
				if node, ok := graph.Decls[callee]; ok {
					if _, seen := visited[node]; !seen {
						visited[node] = r.desc
						queue = append(queue, root{node, r.desc})
					}
				}
				return true
			}
			if pass.ImportObjectFact(callee, &AcquiresTreeLock{}) {
				reportAt(pass, call.Pos(), fmt.Sprintf("%s acquires the tree lock, but this code is reached from %s and already runs under it (lock.go rule 3: only the Tx may touch the tree here)", callee.FullName(), r.desc))
			}
			return true
		})
	}
}

// reportAt reports msg at pos unless a //yancvet:allow lockorder
// directive covers it.
func reportAt(pass *analysis.Pass, pos token.Pos, msg string) {
	if f := directive.FileFor(pass, pos); f != nil && directive.Allows(pass, f, pos, "lockorder") {
		return
	}
	pass.Reportf(pos, "%s", msg)
}

func recvIsTx(fn *types.Func, info *lockset.Info) bool {
	if info.Tx == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return deref(sig.Recv().Type()) == info.Tx.Obj().Type()
}

func isFuncExpr(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

func fieldOwner(sel *types.Selection) types.Type {
	recv := sel.Recv()
	return deref(recv)
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
