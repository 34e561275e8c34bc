// Package hotalloc enforces the zero-allocation contract on the tree's
// hot paths at compile time. A function annotated with a
// //yancvet:hotalloc doc-comment directive — the E18 renderers, the
// libyanc ring drain loop, the lock-free resolver, the fan-out
// primitives, the driver's packet-in and mailbox drains — and every
// same-package function it transitively calls must be free of
// per-call heap allocation. The dynamic AllocsPerRun pins catch the
// configurations a benchmark happens to run; this analyzer catches the
// rest, and keeps catching them as the code moves.
//
// What is flagged (an SSA-style value-flow pass over each function):
//
//   - make/new and composite literals whose value ESCAPES — returned,
//     stored through a pointer/field/global, sent on a channel, or
//     captured by an escaping closure. A non-escaping, constant-sized
//     make or literal is stack-allocatable and allowed.
//   - make of maps and channels, and make with a non-constant size
//     (always heap).
//   - append to a slice that started as nil/empty in this function
//     (guaranteed growth on every call); append to caller-provided or
//     pooled storage is the amortized arena contract and is allowed.
//   - interface boxing: a non-pointer-shaped concrete value converted
//     to an interface (call argument, assignment, return, send,
//     composite-literal element).
//   - string concatenation and string<->[]byte/[]rune conversions.
//   - fmt calls, goroutine launches, and method-value bindings (each
//     allocates a closure).
//   - calls to in-module functions in OTHER packages that do not carry
//     the AllocFree fact (annotate the callee //yancvet:hotalloc so the
//     contract propagates), and calls to standard-library functions not
//     on the known-allocation-free allowlist.
//
// Deliberate allocations — an arena handed off to inode storage, a
// cold error path — must say so:
//
//	arena := make([]byte, 0, 160) //yancvet:alloc arena is adopted by the written inodes
//
// Dynamic calls (func values, interface methods) are not flagged: the
// contract sits with whoever binds the hook, checked in its own
// package.
package hotalloc

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"yanc/internal/analysis/internal/directive"
	"yanc/internal/analysis/internal/lockset"
)

// AllocFree marks a function annotated //yancvet:hotalloc: it is under
// the hot-path allocation discipline and may be called from hot code in
// downstream packages.
type AllocFree struct{}

func (*AllocFree) AFact()         {}
func (*AllocFree) String() string { return "allocFree" }

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid heap allocation in //yancvet:hotalloc functions and their same-package callees " +
		"(annotate deliberate allocations with //yancvet:alloc <reason>)",
	FactTypes: []analysis.Fact{(*AllocFree)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Annotated roots: //yancvet:hotalloc in the function's doc comment.
	roots := map[*types.Func]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			if !hasHotallocDirective(fd.Doc) {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				roots[obj] = true
				pass.ExportObjectFact(obj, &AllocFree{})
			}
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}

	// Hot set: annotated functions plus their transitive same-package
	// callees, each attributed to one annotated root for diagnostics.
	graph := lockset.BuildGraph(pass)
	rootOf := map[*types.Func]string{}
	var queue []*types.Func
	for fn := range roots {
		rootOf[fn] = fn.Name()
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node, ok := graph.Decls[fn]
		if !ok {
			continue
		}
		for _, callee := range graph.Calls[node] {
			if _, seen := rootOf[callee]; !seen {
				rootOf[callee] = rootOf[fn]
				queue = append(queue, callee)
			}
		}
	}

	c := &checker{pass: pass, reported: map[token.Pos]bool{}}
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
			root, hot := rootOf[obj]
			if !hot {
				continue
			}
			c.checkFunc(file, fd, root)
		}
	}
	return nil, nil
}

func hasHotallocDirective(doc *ast.CommentGroup) bool {
	for _, cm := range doc.List {
		if strings.HasPrefix(cm.Text, "//yancvet:hotalloc") {
			return true
		}
	}
	return false
}

// checker analyzes one hot function at a time.
type checker struct {
	pass     *analysis.Pass
	file     *ast.File
	root     string
	reported map[token.Pos]bool

	// Per-function value-flow state.
	escaped  map[ast.Node]bool // alloc sites whose value escapes
	varAlloc map[*types.Var][]ast.Node
	freshNil map[*types.Var]bool // locals that started nil/empty
	litLocal map[*ast.FuncLit]bool
}

func (c *checker) checkFunc(file *ast.File, fd *ast.FuncDecl, root string) {
	c.file, c.root = file, root
	c.escaped = map[ast.Node]bool{}
	c.varAlloc = map[*types.Var][]ast.Node{}
	c.freshNil = map[*types.Var]bool{}
	c.litLocal = map[*ast.FuncLit]bool{}
	c.classifyLits(fd.Body)
	c.flow(fd.Body)
	c.report(fd.Body)
}

// classifyLits decides which function literals stay local: immediately
// invoked, or bound to a local variable that is only ever called.
// Everything else — passed to a call, stored, returned, launched —
// escapes, and so does anything it captures.
func (c *checker) classifyLits(body ast.Node) {
	// Literals bound at `name := func(...){...}` with the variable used
	// only in call position are local helper closures (the `seal` idiom).
	localVars := map[*types.Var]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				c.litLocal[lit] = true
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
						localVars[v] = lit
					}
				}
			}
		}
		return true
	})
	// A bound literal stays local only if every use of its variable is a
	// direct call.
	for v, lit := range localVars {
		local := true
		ast.Inspect(body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || c.pass.TypesInfo.Uses[id] != v {
				return true
			}
			if !c.isCallFun(body, id) {
				local = false
			}
			return true
		})
		if local {
			c.litLocal[lit] = true
		}
	}
}

// isCallFun reports whether id appears as the Fun of some call.
func (c *checker) isCallFun(body ast.Node, id *ast.Ident) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == id {
			found = true
		}
		return true
	})
	return found
}

// flow runs the value-flow pass: it finds allocation expressions, traces
// them through local assignments, and marks the ones that escape.
func (c *checker) flow(body ast.Node) {
	// Seed: which expressions are allocations we track for escape.
	track := func(e ast.Expr) []ast.Node {
		switch e := e.(type) {
		case *ast.CallExpr:
			if name, ok := builtinName(c.pass, e); ok && (name == "make" || name == "new") {
				return []ast.Node{e}
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := e.X.(*ast.CompositeLit); ok {
					return []ast.Node{e}
				}
			}
		case *ast.CompositeLit:
			switch c.typeOf(e).Underlying().(type) {
			case *types.Slice, *types.Map:
				return []ast.Node{e}
			}
		case *ast.Ident:
			if v, ok := c.pass.TypesInfo.Uses[e].(*types.Var); ok {
				return c.varAlloc[v]
			}
		}
		return nil
	}
	escape := func(e ast.Expr) {
		for _, site := range track(e) {
			c.escaped[site] = true
		}
	}

	// Iterate to a fixpoint so chains (a := alloc; b := a; return b)
	// resolve regardless of statement order.
	for changed := true; changed; {
		changed = false
		bind := func(v *types.Var, sites []ast.Node) {
			have := c.varAlloc[v]
			for _, s := range sites {
				dup := false
				for _, h := range have {
					if h == s {
						dup = true
						break
					}
				}
				if !dup {
					have = append(have, s)
					changed = true
				}
			}
			c.varAlloc[v] = have
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0] // tuple assign: conservatively reuse
					}
					if rhs == nil {
						continue
					}
					sites := track(rhs)
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						obj := c.pass.TypesInfo.Defs[id]
						if obj == nil {
							obj = c.pass.TypesInfo.Uses[id]
						}
						if v, ok := obj.(*types.Var); ok && !isGlobal(v) {
							bind(v, sites)
							// `xs := []T{}` / later overwritten tracking for
							// fresh-nil appends.
							if n.Tok == token.DEFINE && isEmptySliceExpr(c.pass, rhs) {
								if !c.freshNil[v] {
									c.freshNil[v] = true
									changed = true
								}
							}
							continue
						}
					}
					// Store through a field, index, deref, or global.
					if len(sites) > 0 {
						for _, s := range sites {
							if !c.escaped[s] {
								c.escaped[s] = true
								changed = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					v, ok := c.pass.TypesInfo.Defs[name].(*types.Var)
					if !ok || isGlobal(v) {
						continue
					}
					if i < len(n.Values) {
						bind(v, track(n.Values[i]))
						if isEmptySliceExpr(c.pass, n.Values[i]) && !c.freshNil[v] {
							c.freshNil[v] = true
							changed = true
						}
					} else if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
						// var xs []T — fresh nil slice.
						if !c.freshNil[v] {
							c.freshNil[v] = true
							changed = true
						}
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					escape(res)
				}
			case *ast.SendStmt:
				escape(n.Value)
			case *ast.GoStmt:
				for _, arg := range n.Call.Args {
					escape(arg)
				}
			case *ast.CallExpr:
				// Arguments are borrowed, not escaped: external callees are
				// judged at the call (fact/allowlist), same-package callees
				// are themselves hot-checked. append's result flows like its
				// base; builtin append(base, ...) keeps base's sites.
				if name, ok := builtinName(c.pass, n); ok && name == "append" && len(n.Args) > 0 {
					// The result expression tracks the base slice's sites —
					// handled by track() when the result is assigned.
				}
			case *ast.FuncLit:
				if !c.litLocal[n] {
					// Escaping closure: everything it captures escapes.
					ast.Inspect(n.Body, func(inner ast.Node) bool {
						if id, ok := inner.(*ast.Ident); ok {
							if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
								for _, s := range c.varAlloc[v] {
									if !c.escaped[s] {
										c.escaped[s] = true
										changed = true
									}
								}
							}
						}
						return true
					})
				}
			}
			return true
		})
		// append result tracking: `x = append(y, ...)` binds y's sites to x.
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if name, ok := builtinName(c.pass, call); !ok || name != "append" || len(call.Args) == 0 {
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
				v, ok := obj.(*types.Var)
				if !ok {
					continue
				}
				sites := track(call.Args[0])
				have := c.varAlloc[v]
				for _, s := range sites {
					dup := false
					for _, h := range have {
						if h == s {
							dup = true
							break
						}
					}
					if !dup {
						have = append(have, s)
						changed = true
					}
				}
				c.varAlloc[v] = have
			}
			return true
		})
	}
}

// report walks the body and emits diagnostics for allocation sites.
func (c *checker) report(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok && c.escaped[n] {
					c.reportf(n.Pos(), "heap allocation on hot path (root %s): &composite literal escapes", c.root)
				}
			}
		case *ast.CompositeLit:
			if c.escaped[n] {
				switch c.typeOf(n).Underlying().(type) {
				case *types.Slice:
					c.reportf(n.Pos(), "heap allocation on hot path (root %s): slice literal escapes", c.root)
				case *types.Map:
					c.reportf(n.Pos(), "heap allocation on hot path (root %s): map literal escapes", c.root)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(c.typeOf(n)) && c.pass.TypesInfo.Types[n].Value == nil {
				c.reportf(n.Pos(), "string concatenation allocates on hot path (root %s): use an append renderer", c.root)
			}
		case *ast.GoStmt:
			c.reportf(n.Pos(), "goroutine launch allocates on hot path (root %s)", c.root)
		case *ast.FuncLit:
			// An escaping literal is a heap closure: one allocation per
			// evaluation, plus one per captured variable moved to the heap.
			if !c.litLocal[n] {
				c.reportf(n.Pos(), "closure allocates on hot path (root %s): it escapes, so it and its captures are heap-allocated", c.root)
			}
		case *ast.SelectorExpr:
			// Method value (not a call): binds a closure per evaluation.
			if sel, ok := c.pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if !c.isCallee(body, n) {
					c.reportf(n.Pos(), "method value allocates a closure on hot path (root %s): hoist the bound func out of the hot loop", c.root)
				}
			}
		}
		// Boxing checks need typed contexts:
		c.checkBoxingAt(n)
		return true
	})
}

// isCallee reports whether sel is directly invoked (sel(...)).
func (c *checker) isCallee(body ast.Node, sel *ast.SelectorExpr) bool {
	invoked := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == sel {
			invoked = true
		}
		return true
	})
	return invoked
}

func (c *checker) checkCall(call *ast.CallExpr) {
	// Builtins.
	if name, ok := builtinName(c.pass, call); ok {
		switch name {
		case "make":
			c.checkMake(call)
		case "new":
			if c.escaped[call] {
				c.reportf(call.Pos(), "heap allocation on hot path (root %s): new(...) escapes", c.root)
			}
		case "append":
			c.checkAppend(call)
		}
		return
	}
	// Type conversion?
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}
	callee := typeutil.StaticCallee(c.pass.TypesInfo, call)
	if callee == nil {
		return // dynamic call: contract sits with the hook provider
	}
	pkg := callee.Pkg()
	if pkg == nil || pkg == c.pass.Pkg {
		return // builtins handled above; same-package callees are hot-checked
	}
	if samePathRoot(pkg.Path(), c.pass.Pkg.Path()) {
		// In-module cross-package call: the callee must carry the
		// //yancvet:hotalloc contract. A method of an instantiated generic
		// type is a distinct object; the fact sits on its declaration.
		if !c.pass.ImportObjectFact(callee.Origin(), &AllocFree{}) {
			c.reportf(call.Pos(), "call to %s on hot path (root %s): callee is not marked //yancvet:hotalloc, so its allocation behavior is unverified", callee.FullName(), c.root)
		}
		return
	}
	if pkg.Path() == "fmt" {
		c.reportf(call.Pos(), "fmt call allocates on hot path (root %s): use strconv/append renderers", c.root)
		return
	}
	if !allowedExternal(callee) {
		c.reportf(call.Pos(), "call to %s on hot path (root %s): not on the allocation-free allowlist", callee.FullName(), c.root)
	}
}

func (c *checker) checkMake(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	t := c.typeOf(call)
	switch t.Underlying().(type) {
	case *types.Map:
		c.reportf(call.Pos(), "heap allocation on hot path (root %s): make(map)", c.root)
	case *types.Chan:
		c.reportf(call.Pos(), "heap allocation on hot path (root %s): make(chan)", c.root)
	case *types.Slice:
		for _, arg := range call.Args[1:] {
			if c.pass.TypesInfo.Types[arg].Value == nil {
				c.reportf(call.Pos(), "heap allocation on hot path (root %s): make with non-constant size", c.root)
				return
			}
		}
		if c.escaped[call] {
			c.reportf(call.Pos(), "heap allocation on hot path (root %s): make(...) escapes", c.root)
		}
	}
}

// checkAppend flags appends that are guaranteed to grow: the base slice
// started as nil/empty in this function, so every call allocates. Append
// to caller-provided or pooled storage is the arena contract and is
// checked dynamically by the AllocsPerRun pins.
func (c *checker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if c.freshNil[v] && len(c.varAlloc[v]) == 0 {
		c.reportf(call.Pos(), "append to a fresh nil slice on hot path (root %s): grows (allocates) on every call — pre-size it or reuse a buffer", c.root)
	}
}

func (c *checker) checkConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src := c.typeOf(call.Args[0])
	if c.pass.TypesInfo.Types[call.Args[0]].Value != nil {
		return // constant conversion, folded at compile time
	}
	tu, su := target.Underlying(), src.Underlying()
	if isStringType(tu) && isByteOrRuneSlice(su) {
		c.reportf(call.Pos(), "string(...) conversion copies on hot path (root %s)", c.root)
		return
	}
	if isByteOrRuneSlice(tu) && isStringType(su) {
		c.reportf(call.Pos(), "[]byte/[]rune(string) conversion copies on hot path (root %s)", c.root)
		return
	}
	if types.IsInterface(target) {
		c.checkBox(call.Args[0], target)
	}
}

// checkBoxingAt inspects typed contexts (call args, assignments, returns,
// sends, composite elements) for implicit interface conversions of
// non-pointer-shaped values.
func (c *checker) checkBoxingAt(n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		callee := typeutil.StaticCallee(c.pass.TypesInfo, n)
		var sig *types.Signature
		if callee != nil {
			sig = callee.Type().(*types.Signature)
		} else if tv, ok := c.pass.TypesInfo.Types[n.Fun]; ok && !tv.IsType() {
			sig, _ = tv.Type.Underlying().(*types.Signature)
		}
		if sig == nil {
			return
		}
		params := sig.Params()
		for i, arg := range n.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if n.Ellipsis != token.NoPos {
					continue // s... passes the slice itself
				}
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			case i < params.Len():
				pt = params.At(i).Type()
			default:
				continue
			}
			if types.IsInterface(pt) {
				c.checkBox(arg, pt)
			}
		}
	case *ast.SendStmt:
		if ch, ok := c.typeOf(n.Chan).Underlying().(*types.Chan); ok && types.IsInterface(ch.Elem()) {
			c.checkBox(n.Value, ch.Elem())
		}
	case *ast.CompositeLit:
		t := c.typeOf(n)
		var elem types.Type
		switch tt := t.Underlying().(type) {
		case *types.Slice:
			elem = tt.Elem()
		case *types.Array:
			elem = tt.Elem()
		case *types.Map:
			elem = tt.Elem()
		}
		if elem == nil || !types.IsInterface(elem) {
			return
		}
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			c.checkBox(el, elem)
		}
	}
}

func (c *checker) checkBox(e ast.Expr, target types.Type) {
	src := c.typeOf(e)
	if src == nil || types.IsInterface(src) {
		return // interface-to-interface carries the word pair, no alloc
	}
	if c.pass.TypesInfo.Types[e].IsNil() {
		return
	}
	if isPointerShaped(src) {
		return // the data word holds the pointer directly
	}
	if c.pass.TypesInfo.Types[e].Value != nil && isSmallIntConstant(c.pass, e) {
		return // runtime staticuint64s table: no allocation for small ints
	}
	c.reportf(e.Pos(), "interface boxing allocates on hot path (root %s): %s converted to %s", c.root, src, target)
}

func (c *checker) reportf(pos token.Pos, format string, args ...interface{}) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	if f := directive.FileFor(c.pass, pos); f != nil && directive.Allows(c.pass, f, pos, "hotalloc") {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return types.Typ[types.Invalid]
	}
	return t
}

// ---- helpers ----

func builtinName(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
		return id.Name, true
	}
	return "", false
}

func isGlobal(v *types.Var) bool {
	return v.Parent() == v.Pkg().Scope()
}

func isEmptySliceExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		if _, ok := pass.TypesInfo.TypeOf(e).Underlying().(*types.Slice); ok {
			return len(e.Elts) == 0
		}
	case *ast.Ident:
		return e.Name == "nil"
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isPointerShaped reports whether values of t fit an interface data word
// without allocation.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Slice:
		// Slices are 3 words and DO box; exclude them.
		_, isSlice := t.Underlying().(*types.Slice)
		return !isSlice
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

func isSmallIntConstant(pass *analysis.Pass, e ast.Expr) bool {
	tv := pass.TypesInfo.Types[e]
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v >= 0 && v < 256
}

func recvNamed(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func samePathRoot(a, b string) bool {
	return firstElem(a) == firstElem(b)
}

func firstElem(p string) string {
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}

// allowedExternal is the allocation-free allowlist for calls outside the
// module. Everything not listed is flagged: the discipline is deny-by-
// default, with //yancvet:alloc as the per-line release valve.
func allowedExternal(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // error.Error etc. — interface methods resolved oddly
	}
	switch pkg.Path() {
	case "sync", "sync/atomic", "math", "math/bits", "unsafe", "encoding/binary", "runtime":
		return true
	case "time":
		// Time/Duration arithmetic is allocation-free; constructors that
		// build timers/tickers are not.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true
		}
		return fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Unix"
	case "strconv":
		if strings.HasPrefix(fn.Name(), "Append") {
			return true
		}
		switch fn.Name() {
		case "ParseUint", "ParseInt", "ParseFloat", "Atoi":
			return true // allocation only on the error path
		}
		return false
	case "strings":
		// Builder writes are amortized-free once Grow has sized the buffer,
		// and Builder.String is a zero-copy conversion; Grow itself is the
		// one deliberate allocation and stays flagged.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if recvNamed(sig.Recv().Type()) == "Builder" && fn.Name() != "Grow" {
				return true
			}
			return false
		}
		switch fn.Name() {
		case "HasPrefix", "HasSuffix", "Contains", "ContainsRune", "Index", "IndexByte",
			"IndexRune", "LastIndex", "LastIndexByte", "Compare", "EqualFold", "Cut",
			"TrimPrefix", "TrimSuffix", "TrimSpace", "Count":
			return true
		}
		return false
	case "bytes":
		switch fn.Name() {
		case "Equal", "Compare", "Contains", "HasPrefix", "HasSuffix", "Index",
			"IndexByte", "LastIndex", "LastIndexByte", "Cut", "TrimSpace", "Count":
			return true
		}
		return false
	case "errors":
		return fn.Name() == "Is" || fn.Name() == "As" || fn.Name() == "Unwrap"
	case "sort":
		return fn.Name() == "Search" || fn.Name() == "SearchStrings"
	}
	return false
}
