// Package snapshotpub enforces rule 5 of the VFS locking discipline
// (internal/vfs/lock.go): directory children snapshots are immutable
// after publish and may only be replaced — never edited — via an atomic
// swap performed under the tree write lock.
//
// The snapshot vocabulary is detected by shape, like lockset does for
// the lock primitives: the "snapshot type" is any named type declaring
// both a `kids` and a `setKids` method, in a package that also defines
// the lock vocabulary; the "node type" is what `kids` returns a pointer
// to (the persistent children trie's node). Three rules follow:
//
//  1. The publishers (setKids and the copy-on-write helpers cowInsert /
//     cowDelete) may only be called from a write-locked context: a Tx
//     method, a function that takes the tree write lock itself, or a
//     helper reachable only from such functions (computed over the
//     in-package static call graph). A publisher reachable from an
//     unlocked or read-locked entry point races every other writer's
//     copy-on-write cycle.
//  2. The `children` atomic pointer may only be Stored inside setKids:
//     a direct Store skips the generation bump that lock-free readers
//     use to detect concurrent change, so a reader could validate a new
//     snapshot against a stale generation and assemble a path that
//     never existed.
//  3. A published node must never be written through. Published means
//     obtained from `kids()`, or the receiver of a method declared on
//     the node type, or anything reached from either by field, index,
//     slice or dereference without leaving the trie through a pointer
//     to some other type (the inodes that entries point at are mutable
//     under their own rules). Writing means assignment, ++/--, and the
//     builtins that write into their first argument's memory: append
//     (the classic persistent-structure bug — an in-place append onto a
//     shared backing array), copy, delete and clear. Published nodes
//     are read concurrently with no lock, and a path copy that edits
//     the original instead changes history under a reader mid-walk.
//     Freshly built nodes (composite literals, make, call results) are
//     private until setKids swaps them in and may be filled freely.
//
// The context check is an approximation in the safe direction: a
// function "holds the write lock" if its body contains a lockTree call
// anywhere (no release tracking — lockpair owns pairing), and a helper
// is accepted when no unlocked entry point reaches it through the
// in-package static call graph — recursion included, so a recursive
// teardown called only from Tx methods is clean. Dynamic calls (hooks,
// stored closures) have no callers in the static graph, count as entry
// points, and are therefore reported unless suppressed with
// `//yancvet:allow snapshotpub <reason>`.
package snapshotpub

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
	Name: "snapshotpub",
	Doc: "check that children-map snapshots are replaced only via atomic swap under the tree write lock " +
		"and never mutated after publish",
	Run: run,
}

// publisherNames are the methods on the snapshot type that publish a new
// children snapshot. bumpGen is deliberately absent: a spurious
// generation bump only costs lock-free readers a retry, it cannot
// corrupt a walk.
var publisherNames = []string{"setKids", "cowInsert", "cowDelete"}

func run(pass *analysis.Pass) (interface{}, error) {
	info := lockset.Find(pass)
	if info == nil {
		return nil, nil // only the lock package carries snapshot obligations
	}
	v := findVocab(pass)
	if v == nil {
		return nil, nil
	}
	g := lockset.BuildGraph(pass)
	c := &checker{
		pass: pass, info: info, v: v, graph: g,
		locked:  make(map[*types.Func]bool),
		callers: make(map[*types.Func][]*types.Func),
		bad:     make(map[*types.Func]bool),
	}
	for fn, node := range g.Decls {
		if c.isTxMethod(fn) || v.publishers[fn] {
			c.locked[fn] = true
			continue
		}
		if body, ok := g.Bodies[node]; ok && c.takesWriteLock(body) {
			c.locked[fn] = true
		}
	}
	for fn, node := range g.Decls {
		for _, callee := range g.Calls[node] {
			c.callers[callee] = append(c.callers[callee], fn)
		}
	}
	c.markBadContexts()
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
			c.checkPublishes(obj, fd.Body)
			c.checkMutations(fd)
		}
	}
	return nil, nil
}

// vocab is the snapshot vocabulary detected in the package.
type vocab struct {
	snap       *types.Named         // the snapshot (inode) type
	publishers map[*types.Func]bool // setKids / cowInsert / cowDelete
	kids       *types.Func          // the kids() accessor
	setKids    *types.Func          // the one legal Store site
	node       *types.Named         // the trie node type kids() points at, if any
	children   *types.Var           // the atomic snapshot field, if named "children"
}

func findVocab(pass *analysis.Pass) *vocab {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		kids := methodNamed(named, "kids")
		set := methodNamed(named, "setKids")
		if kids == nil || set == nil {
			continue
		}
		v := &vocab{snap: named, publishers: map[*types.Func]bool{}, kids: kids, setKids: set,
			children: childrenField(named)}
		for _, pn := range publisherNames {
			if m := methodNamed(named, pn); m != nil {
				v.publishers[m] = true
			}
		}
		if res := kids.Type().(*types.Signature).Results(); res.Len() == 1 {
			if ptr, ok := res.At(0).Type().(*types.Pointer); ok {
				v.node, _ = ptr.Elem().(*types.Named)
			}
		}
		return v
	}
	return nil
}

// childrenField finds the field named "children" in the snapshot type's
// struct, or in a struct one of its fields points to (the real package
// keeps directory-only state behind a pointer).
func childrenField(named *types.Named) *types.Var {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "children" {
			return f
		}
		if ptr, ok := f.Type().(*types.Pointer); ok {
			if inner, ok := ptr.Elem().Underlying().(*types.Struct); ok {
				for j := 0; j < inner.NumFields(); j++ {
					if inner.Field(j).Name() == "children" {
						return inner.Field(j)
					}
				}
			}
		}
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	info    *lockset.Info
	v       *vocab
	graph   *lockset.Graph
	locked  map[*types.Func]bool // functions that establish write-lock context
	callers map[*types.Func][]*types.Func
	bad     map[*types.Func]bool // reachable from an unlocked entry without crossing a locked context
}

func (c *checker) isTxMethod(fn *types.Func) bool {
	if c.info.Tx == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedOf(sig.Recv().Type()) == c.info.Tx
}

// takesWriteLock reports whether body contains a lockTree call anywhere
// (including nested literals — a closure run by its owner shares the
// owner's lock context in every shape the VFS uses).
func (c *checker) takesWriteLock(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if c.info.Classify(c.pass, call) == lockset.OpLockTree {
				found = true
			}
		}
		return true
	})
	return found
}

// markBadContexts computes the set of functions that an unlocked code
// path can reach. Entry points are the non-locked functions with no
// in-package callers (exported API surface, dynamic hooks); bad-ness
// propagates forward along call edges but stops at locked functions,
// which establish their own context. Forward reachability handles
// recursion and mutual cycles by construction: a cycle is judged solely
// by the entry points that can reach it, so a recursive helper called
// only from locked contexts (removeNode's shape) is clean, while the
// same cycle hanging off one unlocked caller is bad in every member.
func (c *checker) markBadContexts() {
	var queue []*types.Func
	for fn := range c.graph.Decls {
		if !c.locked[fn] && len(c.callers[fn]) == 0 {
			c.bad[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range c.graph.Calls[c.graph.Decls[fn]] {
			if !c.locked[callee] && !c.bad[callee] {
				c.bad[callee] = true
				queue = append(queue, callee)
			}
		}
	}
}

// okContext reports whether fn only runs with the tree write lock held:
// no unlocked entry point reaches it. A function outside the call graph
// entirely is not ok — it is a dynamic entry the graph cannot vouch for.
func (c *checker) okContext(fn *types.Func) bool {
	if c.locked[fn] {
		return true
	}
	if _, known := c.graph.Decls[fn]; !known {
		return false
	}
	return !c.bad[fn]
}

// checkPublishes walks one declared function's body (nested literals
// included — they inherit the enclosing lock context) and reports
// publisher calls and direct children Stores from unproven contexts.
func (c *checker) checkPublishes(owner *types.Func, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := typeutil.StaticCallee(c.pass.TypesInfo, call); callee != nil {
			if c.v.publishers[callee] && !c.okContext(owner) {
				c.report(call.Pos(), "children snapshot published outside the tree write lock: %s may only be called from a Tx method, a lockTree holder, or their helpers", callee.Name())
			}
		}
		if c.isChildrenStore(call) && owner != c.v.setKids {
			c.report(call.Pos(), "children snapshot replaced by a direct Store: use setKids so the generation is bumped before the swap")
		}
		return true
	})
}

// isChildrenStore matches `<snap expr>.children.Store(...)`.
func (c *checker) isChildrenStore(call *ast.CallExpr) bool {
	if c.v.children == nil {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Store" {
		return false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := c.pass.TypesInfo.Selections[field]
	if !ok || selection.Kind() != types.FieldVal {
		return false
	}
	return selection.Obj() == c.v.children
}

// checkMutations flags writes through a published node (rule 3) in one
// declared function. Taint starts at kids() results and at the receiver
// of a node-type method, and follows plain assignments and range
// clauses in source order.
func (c *checker) checkMutations(fd *ast.FuncDecl) {
	info := c.pass.TypesInfo
	tainted := make(map[types.Object]bool)
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 && c.v.node != nil {
		recv := fd.Recv.List[0].Names[0]
		if obj := info.ObjectOf(recv); obj != nil && namedOf(obj.Type()) == c.v.node {
			tainted[obj] = true
		}
	}
	// published reports whether e denotes memory inside a published
	// node: a tainted root reached by field, index, slice or dereference
	// steps that never cross a pointer to a non-node type. A tainted
	// variable holding a struct copy (a range value, `nd := *d`) is its
	// own memory until a step follows one of its references, so shared
	// says whether some step between e and the root did: a pointer
	// dereference, or an index or slice of a slice or map.
	var published func(e ast.Expr, shared bool) bool
	published = func(e ast.Expr, shared bool) bool {
		var inner ast.Expr
		switch e := e.(type) {
		case *ast.Ident:
			return shared && tainted[info.ObjectOf(e)]
		case *ast.CallExpr:
			return shared && typeutil.StaticCallee(info, e) == c.v.kids
		case *ast.ParenExpr:
			return published(e.X, shared)
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; !ok || sel.Kind() != types.FieldVal {
				return false
			}
			inner = e.X
		case *ast.IndexExpr:
			inner = e.X
		case *ast.SliceExpr:
			inner = e.X
		case *ast.StarExpr:
			inner = e.X
		default:
			return false
		}
		switch t := info.TypeOf(inner).Underlying().(type) {
		case *types.Pointer:
			if namedOf(t) != c.v.node {
				return false // leaves the trie: what an entry points at is not the node's memory
			}
			shared = true
		case *types.Slice, *types.Map:
			shared = true
		}
		return published(inner, shared)
	}
	mutated := func(pos token.Pos) {
		c.report(pos, "children snapshot mutated after publish: build a copy and publish it with setKids")
	}
	written := func(lhs ast.Expr) {
		if published(lhs, false) {
			mutated(lhs.Pos())
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if lhs, ok := n.Lhs[i].(*ast.Ident); ok && published(rhs, true) {
					tainted[info.ObjectOf(lhs)] = true
				}
			}
			for _, lhs := range n.Lhs {
				written(lhs)
			}
		case *ast.RangeStmt:
			if v, ok := n.Value.(*ast.Ident); ok && published(n.X, true) {
				tainted[info.ObjectOf(v)] = true
			}
		case *ast.IncDecStmt:
			written(n.X)
		case *ast.CallExpr:
			id, ok := n.Fun.(*ast.Ident)
			if !ok || len(n.Args) == 0 {
				break
			}
			if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); !isBuiltin {
				break
			}
			switch id.Name {
			case "append", "copy", "delete", "clear":
				if published(n.Args[0], true) {
					mutated(n.Pos())
				}
			}
		}
		return true
	})
}

func (c *checker) report(pos token.Pos, format string, args ...interface{}) {
	if f := directive.FileFor(c.pass, pos); f != nil && directive.Allows(c.pass, f, pos, "snapshotpub") {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func methodNamed(n *types.Named, name string) *types.Func {
	for i := 0; i < n.NumMethods(); i++ {
		if m := n.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}
