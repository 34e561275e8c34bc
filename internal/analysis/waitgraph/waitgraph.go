// Package waitgraph assembles a whole-program wait-for graph and
// reports cross-package cycles that the per-package, pairwise lockorder
// rules cannot see.
//
// Nodes are named wait resources:
//
//   - mutex fields:   "pkg.Type.field"  (x.mu.Lock / x.mu.RLock, and
//     methods promoted from an embedded sync.Mutex/RWMutex)
//   - global mutexes: "pkg.var"
//   - the VFS tree lock: "pkg.FS.tree" (lockTree/rlockTree inside the
//     lock package; WithTx/ReadTx from consumers)
//   - channel fields: "pkg.Type.field" for blocking sends/receives
//   - condition vars: "pkg.Type.field" for sync.Cond Wait
//
// Edges mean "while waiting for/holding the first resource, the
// goroutine needed the second":
//
//   - acquire B while holding A            →  A → B
//   - blocking send/receive/Wait on C while holding A  →  A → C
//   - acquire B after a blocking receive on C (a drain loop: servicing
//     C's senders requires B)              →  C → B
//   - call a function that (transitively) acquires or blocks on R
//     while holding A                      →  A → R
//
// Summaries cross package boundaries as facts: each function exports a
// FuncBlocks object fact listing the resources it may wait on, and each
// package exports an Edges fact that unions its own edges with every
// dependency's, so by the time the leaf importer is analyzed the graph
// is global. A cycle is reported in the package contributing the edge
// that closes it — e.g. driver mux worker → tree lock → watch drain →
// mux mailbox — at that edge's position.
//
// Reentrant self-edges (A → A) are lockorder/lockpair territory and are
// skipped here. Suppress a known-benign edge with
// //yancvet:allow waitgraph <why> on the acquiring line.
package waitgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"yanc/internal/analysis/internal/directive"
	"yanc/internal/analysis/internal/lockset"
)

// Edge is one wait-for dependency, with the package that observed it.
type Edge struct {
	From, To string
	Pkg      string // package path where the edge was observed
	Pos      string // "file:line" in that package, for diagnostics
}

// Edges is the package fact: this package's own wait-for edges unioned
// with those of every dependency.
type Edges struct{ List []Edge }

func (*Edges) AFact()           {}
func (e *Edges) String() string { return fmt.Sprintf("waitEdges(%d)", len(e.List)) }

// FuncBlocks is the object fact for a function: the wait resources the
// function may acquire or block on, transitively within its package.
type FuncBlocks struct{ Resources []string }

func (*FuncBlocks) AFact()           {}
func (f *FuncBlocks) String() string { return "blocks(" + strings.Join(f.Resources, ",") + ")" }

var Analyzer = &analysis.Analyzer{
	Name:      "waitgraph",
	Doc:       "build the cross-package lock/channel wait-for graph and report acquisition cycles",
	FactTypes: []analysis.Fact{(*Edges)(nil), (*FuncBlocks)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	w := &walker{
		pass:      pass,
		info:      lockset.Find(pass),
		summaries: map[*types.Func][]string{},
	}

	// Pass 1: per-function direct summaries (resources touched directly).
	var fns []*ast.FuncDecl
	objs := map[*ast.FuncDecl]*types.Func{}
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
			fns = append(fns, fd)
			objs[fd] = obj
			w.summaries[obj] = w.directResources(fd.Body)
		}
	}

	// Pass 2: close summaries over in-package static calls.
	graph := lockset.BuildGraph(pass)
	for changed := true; changed; {
		changed = false
		for fn, node := range graph.Decls {
			have := w.summaries[fn]
			set := map[string]bool{}
			for _, r := range have {
				set[r] = true
			}
			for _, callee := range graph.Calls[node] {
				for _, r := range w.summaries[callee] {
					if !set[r] {
						set[r] = true
						have = append(have, r)
						changed = true
					}
				}
			}
			w.summaries[fn] = have
		}
	}
	for fn, resources := range w.summaries {
		if len(resources) > 0 {
			sort.Strings(resources)
			pass.ExportObjectFact(fn, &FuncBlocks{Resources: resources})
		}
	}

	// Pass 3: per-function edge scan.
	for _, fd := range fns {
		w.scanFunc(fd)
	}

	// Union with every dependency's edges and export.
	union := append([]Edge(nil), w.edges...)
	seen := map[string]bool{}
	for _, e := range union {
		seen[e.From+"\x00"+e.To+"\x00"+e.Pkg] = true
	}
	for _, imp := range pass.Pkg.Imports() {
		var dep Edges
		if !pass.ImportPackageFact(imp, &dep) {
			continue
		}
		for _, e := range dep.List {
			k := e.From + "\x00" + e.To + "\x00" + e.Pkg
			if !seen[k] {
				seen[k] = true
				union = append(union, e)
			}
		}
	}
	sort.Slice(union, func(i, j int) bool {
		if union[i].From != union[j].From {
			return union[i].From < union[j].From
		}
		if union[i].To != union[j].To {
			return union[i].To < union[j].To
		}
		return union[i].Pkg < union[j].Pkg
	})
	pass.ExportPackageFact(&Edges{List: union})

	w.reportCycles(union)
	return nil, nil
}

type walker struct {
	pass      *analysis.Pass
	info      *lockset.Info // non-nil only in the lock package itself
	summaries map[*types.Func][]string
	edges     []Edge
	ownPos    map[string]token.Pos // "from\x00to" -> first own position
}

// directResources lists the wait resources body touches directly.
func (w *walker) directResources(body ast.Node) []string {
	var out []string
	seen := map[string]bool{}
	add := func(r string) {
		if r != "" && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if r, _ := w.acquireResource(n); r != "" {
				add(r)
			} else if r, _ := w.blockResource(n); r != "" {
				add(r)
			} else if callee := typeutil.StaticCallee(w.pass.TypesInfo, n); callee != nil && callee.Pkg() != nil && callee.Pkg() != w.pass.Pkg {
				var fb FuncBlocks
				if w.pass.ImportObjectFact(callee, &fb) {
					for _, r := range fb.Resources {
						add(r)
					}
				}
				if r := w.treeLockEntry(callee); r != "" {
					add(r)
				}
			}
		case *ast.SendStmt:
			if !inNonBlockingSelect(body, n) {
				add(w.chanResource(n.Chan))
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inNonBlockingSelect(body, n) {
				add(w.chanResource(n.X))
			}
		}
		return true
	})
	return out
}

// scanFunc walks one function in source order maintaining the held set
// and emitting edges.
func (w *walker) scanFunc(fd *ast.FuncDecl) {
	var held []string    // acquired locks, in order
	var drained []string // channels this body blocks receiving from
	file := directive.FileFor(w.pass, fd.Pos())

	emit := func(from, to string, pos token.Pos) {
		if from == to {
			return // reentrancy: lockorder/lockpair's job
		}
		if file != nil && directive.Allows(w.pass, file, pos, "waitgraph") {
			return
		}
		p := w.pass.Fset.Position(pos)
		short := p.Filename
		if i := strings.LastIndexByte(short, '/'); i >= 0 {
			short = short[i+1:]
		}
		w.edges = append(w.edges, Edge{
			From: from, To: to,
			Pkg: w.pass.Pkg.Path(),
			Pos: fmt.Sprintf("%s:%d", short, p.Line),
		})
		if w.ownPos == nil {
			w.ownPos = map[string]token.Pos{}
		}
		key := from + "\x00" + to
		if _, ok := w.ownPos[key]; !ok {
			w.ownPos[key] = pos
		}
	}

	acquire := func(r string, pos token.Pos) {
		for _, h := range held {
			emit(h, r, pos)
		}
		for _, d := range drained {
			emit(d, r, pos)
		}
		held = append(held, r)
	}
	block := func(r string, pos token.Pos) {
		for _, h := range held {
			emit(h, r, pos)
		}
	}
	release := func(r string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == r {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}

	var scan func(n ast.Node, deferred bool)
	scan = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				// A deferred release keeps the lock held to the end of the
				// function, which the linear scan models by ignoring it.
				// A deferred acquire would be bizarre; skip the subtree.
				return false
			case *ast.GoStmt:
				return false // runs on its own goroutine with an empty held set
			case *ast.SelectStmt:
				if hasDefault(n) {
					return true // non-blocking poll
				}
				for _, clause := range n.Body.List {
					cc, ok := clause.(*ast.CommClause)
					if !ok || cc.Comm == nil {
						continue
					}
					switch s := cc.Comm.(type) {
					case *ast.SendStmt:
						if r := w.chanResource(s.Chan); r != "" {
							block(r, s.Pos())
						}
					case *ast.AssignStmt:
						for _, rhs := range s.Rhs {
							if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
								if r := w.chanResource(ue.X); r != "" {
									block(r, ue.Pos())
									drained = append(drained, r)
								}
							}
						}
					case *ast.ExprStmt:
						if ue, ok := s.X.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
							if r := w.chanResource(ue.X); r != "" {
								block(r, ue.Pos())
								drained = append(drained, r)
							}
						}
					}
				}
				return true
			case *ast.SendStmt:
				if r := w.chanResource(n.Chan); r != "" && !inNonBlockingSelect(fd.Body, n) {
					block(r, n.Pos())
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if r := w.chanResource(n.X); r != "" && !inNonBlockingSelect(fd.Body, n) {
						block(r, n.Pos())
						drained = append(drained, r)
					}
				}
			case *ast.CallExpr:
				if r, isAcquire := w.acquireResource(n); r != "" {
					if isAcquire {
						acquire(r, n.Pos())
					} else {
						release(r)
					}
					return true
				}
				if r, isCond := w.blockResource(n); r != "" {
					if isCond {
						// cond.Wait atomically releases the cond's mutex —
						// by convention the innermost held lock — so only
						// OUTER locks are held across the wait, and the
						// wait services nothing (no drained entry).
						for i := 0; i+1 < len(held); i++ {
							emit(held[i], r, n.Pos())
						}
					} else {
						block(r, n.Pos())
					}
					return true
				}
				callee := typeutil.StaticCallee(w.pass.TypesInfo, n)
				if callee == nil {
					return true
				}
				if callee.Pkg() == w.pass.Pkg {
					for _, r := range w.summaries[callee] {
						block(r, n.Pos())
					}
					return true
				}
				var fb FuncBlocks
				if w.pass.ImportObjectFact(callee, &fb) {
					for _, r := range fb.Resources {
						block(r, n.Pos())
					}
				}
				if r := w.treeLockEntry(callee); r != "" {
					block(r, n.Pos())
				}
			}
			return true
		})
	}
	scan(fd.Body, false)
}

// acquireResource classifies call as a lock acquire (true) or release
// (false) of a named resource, or neither ("").
func (w *walker) acquireResource(call *ast.CallExpr) (string, bool) {
	// VFS tree-lock primitives inside the lock package.
	if w.info != nil {
		switch w.info.Classify(w.pass, call) {
		case lockset.OpLockTree, lockset.OpRLockTree:
			return w.pass.Pkg.Path() + ".FS.tree", true
		case lockset.OpUnlockTree, lockset.OpRUnlockTree:
			return w.pass.Pkg.Path() + ".FS.tree", false
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	callee := typeutil.StaticCallee(w.pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return "", false
	}
	recv := recvName(callee)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", false
	}
	var isAcquire bool
	switch callee.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		isAcquire = true
	case "Unlock", "RUnlock":
		isAcquire = false
	default:
		return "", false
	}
	return w.resourceOf(sel.X), isAcquire
}

// blockResource classifies call as a blocking wait on a named resource:
// sync.Cond Wait (isCond=true) or sync.WaitGroup Wait.
func (w *walker) blockResource(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	callee := typeutil.StaticCallee(w.pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" || callee.Name() != "Wait" {
		return "", false
	}
	switch recvName(callee) {
	case "Cond":
		return w.resourceOf(sel.X), true
	case "WaitGroup":
		return w.resourceOf(sel.X), false
	}
	return "", false
}

// chanResource names the channel a send/receive operates on, when it is
// a field of a named type or a package-level variable.
func (w *walker) chanResource(e ast.Expr) string {
	if t := w.pass.TypesInfo.TypeOf(e); t != nil {
		if _, ok := t.Underlying().(*types.Chan); !ok {
			return ""
		}
	}
	return w.resourceOf(e)
}

// treeLockEntry maps cross-package WithTx/ReadTx (and exported locked
// entry points on an FS receiver) to the tree-lock resource.
func (w *walker) treeLockEntry(callee *types.Func) string {
	if callee.Name() != "WithTx" && callee.Name() != "ReadTx" {
		return ""
	}
	if recvName(callee) != "FS" {
		return ""
	}
	return callee.Pkg().Path() + ".FS.tree"
}

// resourceOf names the resource a lock/chan/cond expression denotes:
// "pkg.Type.field" for a field access, "pkg.var" for a package-level
// variable, "pkg.Type.(embedded)" for a promoted method receiver, and
// "" for locals (not shared by name).
func (w *walker) resourceOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := w.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if named := namedOf(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
		}
		// Package-qualified global: pkg.Var
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := w.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				if v, ok := w.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
			}
		}
	case *ast.Ident:
		if v, ok := w.pass.TypesInfo.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		// Method promoted from an embedded mutex on a named receiver type:
		// x.Lock() resolves here with e the receiver ident. A bare local
		// sync.Mutex is NOT shared by name — naming it would unify every
		// local mutex into one false resource — so sync types are skipped.
		if t := w.pass.TypesInfo.TypeOf(e); t != nil {
			if named := namedOf(t); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".(embedded)"
			}
		}
	}
	return ""
}

// reportCycles finds cycles in the union graph that an own edge closes.
// When several own edges lie on the same cycle, the diagnostic goes to
// the MINORITY edge — the acquisition order observed at the fewest
// sites is the anomaly, the dominant order is the discipline it
// violates — with the key as a deterministic tiebreak.
func (w *walker) reportCycles(union []Edge) {
	adj := map[string][]Edge{}
	for _, e := range union {
		adj[e.From] = append(adj[e.From], e)
	}
	count := map[string]int{}
	for _, e := range w.edges {
		count[e.From+"\x00"+e.To]++
	}
	keys := make([]string, 0, len(w.ownPos))
	for key := range w.ownPos {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if count[keys[i]] != count[keys[j]] {
			return count[keys[i]] < count[keys[j]]
		}
		return keys[i] < keys[j]
	})
	reported := map[string]bool{}
	for _, key := range keys {
		pos := w.ownPos[key]
		parts := strings.SplitN(key, "\x00", 2)
		from, to := parts[0], parts[1]
		path := shortestPath(adj, to, from)
		if path == nil {
			continue
		}
		// Cycle: from -> to -> ... -> from. Canonicalize for dedup.
		cycle := append([]string{from, to}, path...)
		sig := canonical(cycle[:len(cycle)-1]) // last repeats the first
		if reported[sig] {
			continue
		}
		reported[sig] = true
		var pkgs []string
		pkgSeen := map[string]bool{}
		for _, e := range union {
			for i := 0; i+1 < len(cycle); i++ {
				if e.From == cycle[i] && e.To == cycle[i+1] && !pkgSeen[e.Pkg] {
					pkgSeen[e.Pkg] = true
					pkgs = append(pkgs, e.Pkg)
				}
			}
		}
		if len(pkgs) < 2 {
			// A cycle whose every edge is observed in one package is
			// pairwise-visible there: lockorder/lockpair territory. This
			// analyzer exists for the cycles no single package can see.
			continue
		}
		sort.Strings(pkgs)
		w.pass.Reportf(pos,
			"lock acquisition cycle across packages: %s (edges observed in %s); two goroutines taking these in opposite order deadlock",
			strings.Join(cycle, " -> "), strings.Join(pkgs, ", "))
	}
}

// shortestPath returns the node path from start to goal (exclusive of
// start, inclusive of goal), or nil.
func shortestPath(adj map[string][]Edge, start, goal string) []string {
	type item struct {
		node string
		path []string
	}
	visited := map[string]bool{start: true}
	queue := []item{{start, nil}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.node == goal {
			return it.path
		}
		for _, e := range adj[it.node] {
			if visited[e.To] {
				continue
			}
			visited[e.To] = true
			next := append(append([]string(nil), it.path...), e.To)
			queue = append(queue, item{e.To, next})
		}
	}
	return nil
}

// canonical rotates a cycle's node list to start at its smallest element
// so the same cycle found from different edges dedups.
func canonical(nodes []string) string {
	if len(nodes) == 0 {
		return ""
	}
	min := 0
	for i, n := range nodes {
		if n < nodes[min] {
			min = i
		}
	}
	rot := append(append([]string(nil), nodes[min:]...), nodes[:min]...)
	return strings.Join(rot, "->")
}

func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
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

func hasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func inNonBlockingSelect(root ast.Node, op ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || !hasDefault(sel) {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			if cc.Comm == op {
				found = true
				continue
			}
			switch s := cc.Comm.(type) {
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
