// Package lockset identifies the VFS locking vocabulary in a package and
// builds the in-package static call graph the lockorder and lockpair
// analyzers walk. The "lock package" (internal/vfs in this repo) is
// recognized by shape, not by import path, so analysistest fixtures can
// replicate it: it is any package that declares both a lockTree and an
// rlockTree method on some receiver type. From that anchor the rest of
// the vocabulary is resolved by name on the same receiver (unlockTree,
// runlockTree), plus the Synthetic provider struct, the DirSemantics hook
// struct, and the Tx transaction type.
package lockset

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// Op classifies what a call to a lock primitive does.
type Op int

const (
	OpNone Op = iota
	OpLockTree
	OpRLockTree
	OpUnlockTree
	OpRUnlockTree
)

// Info describes the locking vocabulary found in one package.
type Info struct {
	// FS is the receiver type (named type) of the lock primitives.
	FS *types.Named
	// Primitives maps the *types.Func of each primitive to its Op.
	Primitives map[*types.Func]Op
	// Synthetic is the provider struct type (nil if absent).
	Synthetic *types.Named
	// DirSemantics is the hook struct type (nil if absent).
	DirSemantics *types.Named
	// Tx is the transaction type whose methods run under the tree lock
	// (nil if absent).
	Tx *types.Named
}

// Find looks for the lock-package shape in pass's package. It returns nil
// when the package does not define the locking vocabulary.
func Find(pass *analysis.Pass) *Info {
	scope := pass.Pkg.Scope()
	var fs *types.Named
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if methodNamed(named, "lockTree") != nil && methodNamed(named, "rlockTree") != nil {
			fs = named
			break
		}
	}
	if fs == nil {
		return nil
	}
	info := &Info{FS: fs, Primitives: make(map[*types.Func]Op)}
	for name, op := range map[string]Op{
		"lockTree":    OpLockTree,
		"rlockTree":   OpRLockTree,
		"unlockTree":  OpUnlockTree,
		"runlockTree": OpRUnlockTree,
	} {
		if m := methodNamed(fs, name); m != nil {
			info.Primitives[m] = op
		}
	}
	if tn, ok := scope.Lookup("Synthetic").(*types.TypeName); ok {
		info.Synthetic = namedOf(tn.Type())
	}
	if tn, ok := scope.Lookup("DirSemantics").(*types.TypeName); ok {
		info.DirSemantics = namedOf(tn.Type())
	}
	if tn, ok := scope.Lookup("Tx").(*types.TypeName); ok {
		info.Tx = namedOf(tn.Type())
	}
	return info
}

// Classify returns the lock Op a call expression performs: which FS
// primitive it calls, if any.
func (in *Info) Classify(pass *analysis.Pass, call *ast.CallExpr) Op {
	if callee := typeutil.StaticCallee(pass.TypesInfo, call); callee != nil {
		if op, ok := in.Primitives[callee]; ok {
			return op
		}
	}
	return OpNone
}

// IsSyntheticProviderCall reports whether call invokes a func-typed field
// of the Synthetic provider struct (e.g. n.synth.Read()). Such providers
// must never run under any tree lock.
func (in *Info) IsSyntheticProviderCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if in.Synthetic == nil {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return "", false
	}
	st, ok := in.Synthetic.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == field {
			return "Synthetic." + field.Name(), true
		}
	}
	return "", false
}

// Graph is the in-package static call graph: declared functions and
// function literals are nodes; only statically resolvable calls to
// same-package functions are edges. Dynamic calls (interface methods,
// func values, hook fields) are invisible, which is exactly right for
// the locking rules: hooks and providers are checked at their binding
// or invocation contract instead.
type Graph struct {
	// Calls maps each function node to the set of same-package declared
	// functions it calls directly.
	Calls map[Node][]*types.Func
	// Decls maps a declared function to its body node, when the body is
	// in this package.
	Decls map[*types.Func]Node
	// Bodies maps each node to its body syntax, for reporting walks.
	Bodies map[Node]ast.Node
}

// Node is a call-graph node: a declared function or a function literal.
type Node interface{ isNode() }

type declNode struct{ fn *types.Func }
type litNode struct{ lit *ast.FuncLit }

func (declNode) isNode() {}
func (litNode) isNode()  {}

// DeclNode returns the graph node for a declared function.
func DeclNode(fn *types.Func) Node { return declNode{fn} }

// LitNode returns the graph node for a function literal.
func LitNode(lit *ast.FuncLit) Node { return litNode{lit} }

// BuildGraph walks every function body in the pass and records its
// direct same-package callees.
func BuildGraph(pass *analysis.Pass) *Graph {
	g := &Graph{
		Calls:  make(map[Node][]*types.Func),
		Decls:  make(map[*types.Func]Node),
		Bodies: make(map[Node]ast.Node),
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
			node := DeclNode(obj)
			g.Decls[obj] = node
			g.Bodies[node] = fd.Body
			g.collect(pass, node, fd.Body)
		}
	}
	return g
}

// collect records the same-package callees of body under node, descending
// into nested function literals as their own nodes. A function literal is
// also treated as called by its enclosing function: literals are almost
// always invoked (immediately or via defer) in the VFS code shapes, and
// folding them in keeps reachability conservative.
func (g *Graph) collect(pass *analysis.Pass, node Node, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := LitNode(n)
			g.Bodies[lit] = n.Body
			g.collect(pass, lit, n.Body)
			// Fold literal reachability into the enclosing function.
			g.Calls[node] = append(g.Calls[node], g.litCallees(lit)...)
			return false
		case *ast.CallExpr:
			if callee := typeutil.StaticCallee(pass.TypesInfo, n); callee != nil && callee.Pkg() == pass.Pkg {
				g.Calls[node] = append(g.Calls[node], callee)
			}
		}
		return true
	})
}

func (g *Graph) litCallees(lit Node) []*types.Func {
	return g.Calls[lit]
}

// Reaches computes the set of declared functions from which a call to any
// function in targets is reachable, following in-package static edges.
func (g *Graph) Reaches(targets map[*types.Func]bool) map[*types.Func]bool {
	reach := make(map[*types.Func]bool, len(targets))
	for fn := range targets {
		reach[fn] = true
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range g.Decls {
			if reach[fn] {
				continue
			}
			for _, callee := range g.Calls[node] {
				if reach[callee] {
					reach[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return reach
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
