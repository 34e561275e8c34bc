package yancfs

import (
	"errors"
	"strings"
	"sync"

	"yanc/internal/vfs"
)

// A Reconciler keeps one flows directory and what it was translated into
// level-triggered. It is the one implementation behind the three
// translators of the tree: the driver (a switch's flow table, OpenFlow on
// the wire), the slicer (another region's flow directories, confined to a
// header space) and the big switch (flow chains compiled over a topology).
//
// A watch event is only a hint that a flow directory may no longer match
// what was installed from it, and marking is all an event does (Apply).
// The work happens in a pass, which reads each dirty flow once under one
// read transaction (ReadFlowTx), compares it with the installed table and
// hands the sink what changed: a flow committed five times between two
// passes is installed once, at its last version. Attach and a watch
// overflow are the same pass over every name the directory or the table
// knows ("all"), the only case in which a missing directory means retire:
// while events are intact the remove event itself retires an entry.
type Reconciler[S any] struct {
	vfs    *vfs.FS
	dir    string // the flows directory, clean
	sink   Sink[S]
	passFn func(*vfs.Tx) error // r.pass, bound once
	hold   sync.Mutex          // locked while a Hold is in force

	// What was installed and what may have drifted from it, all under mu.
	// installed is keyed by the flow directory's own name string, never
	// by a piece of an event path.
	mu        sync.Mutex
	installed map[string]entry[S]
	dirty     map[string]bool // flow dir path -> put there by a sweep
	dirtyBig  bool            // a pass found dirty holding more than passMax
	dirtyAll  bool            // reconcile every name, not only dirty's
	gone      []S             // removed flows whose retirement is owed

	passes, reconciled, coalesced uint64 // under mu too: see ReconcileStats

	// The pass's scratch, owned by whoever runs Pass.
	take   []dirtyFlow
	reader FlowReader
}

// A Sink is what a Reconciler installs into. Install, Retire and
// Unreadable run inside the pass's read transaction, with the table
// locked, so they only record what is to be done (the driver encodes
// flow-mods, a view stages writes); Flush runs after it, with no lock
// held, and does the I/O.
type Sink[S any] interface {
	// Install brings the flow at path, committed at version, into the
	// sink over prev, when known; spec is the reconciler's, so copy what
	// must outlive the call. The state returned is what the table records.
	Install(path string, version uint64, spec *FlowSpec, prev S, known bool) S
	// Retire takes back what an installed state put in place.
	Retire(state S)
	// Unreadable reports a committed flow that would not parse; the table
	// keeps what it had.
	Unreadable(path string, err error)
	Flush()
}

// entry is what the sink installed for a flow, and from which version.
type entry[S any] struct {
	state   S
	version uint64
}

// dirtyFlow is one path a pass took from the dirty set. sweep marks a
// path put there by "all" rather than by an event.
type dirtyFlow struct {
	path  string
	sweep bool
}

// passMax is how many owed retirements and how many flows one pass takes:
// it bounds how long a pass holds the tree lock and how much Flush does.
const passMax = 256

// NewReconciler reconciles the flows directory dir of fs into sink. It
// starts with every name to look at, as an attach does.
func NewReconciler[S any](fs *vfs.FS, dir string, sink Sink[S]) *Reconciler[S] {
	r := &Reconciler[S]{vfs: fs, dir: vfs.Clean(dir), sink: sink, installed: make(map[string]entry[S]), dirtyAll: true}
	r.passFn = r.pass
	return r
}

// flowName is the last element of a flow directory's path, which is clean
// whether it came from an event or from the reconciler's directory.
//
//yancvet:hotalloc
func flowName(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

// markLocked puts a flow directory's path in the dirty set; r.mu is held.
// path may be a piece of an event's path, pinned only until its pass.
//
//yancvet:hotalloc
func (r *Reconciler[S]) markLocked(path string, sweep bool) {
	if r.dirty == nil {
		r.dirty = make(map[string]bool) //yancvet:alloc the set is dropped after a burst and made again by the next mark
	}
	if _, ok := r.dirty[path]; !ok || sweep {
		r.dirty[path] = sweep
	}
}

// MarkAll asks for every name to be reconciled: what attach does, and
// what a watch overflow falls back to.
//
//yancvet:hotalloc
func (r *Reconciler[S]) MarkAll() {
	r.mu.Lock()
	r.dirtyAll = true
	r.mu.Unlock()
}

// Retranslate forgets every installed version and marks every installed
// flow as a sweep does, so the next passes hand each one to the sink again
// over its installed state: what a sink whose translation itself changed
// calls (a big switch whose topology moved).
func (r *Reconciler[S]) Retranslate() {
	r.mu.Lock()
	for name, e := range r.installed {
		e.version = 0
		r.installed[name] = e
		r.markLocked(r.dir+"/"+name, true)
	}
	r.mu.Unlock()
}

// Apply makes the mark a classified event calls for (ClassifyFlowEvent):
// a commit puts the flow's path in the dirty set; a remove moves its
// installed state to the owed retirements now, because a directory
// recreated under the name before the next pass is a new flow, counting
// from version 1 again; a rename moves the installed state to the new
// name, so the pass finds that version installed and does nothing.
//
//yancvet:hotalloc
func (r *Reconciler[S]) Apply(kind FlowEvent, flowPath string, ev *vfs.Event) {
	r.mu.Lock()
	switch kind {
	case FlowCommit:
		r.markLocked(flowPath, false)
	case FlowGone:
		name := flowName(flowPath)
		if e, ok := r.installed[name]; ok {
			delete(r.installed, name)
			r.gone = append(r.gone, e.state)
		}
	case FlowMove:
		if e, ok := r.installed[flowName(ev.Path)]; ok {
			delete(r.installed, flowName(ev.Path))
			r.installed[strings.Clone(flowName(flowPath))] = e //yancvet:alloc a rename: the key must not pin the event's path
		}
		r.markLocked(flowPath, false)
	}
	r.mu.Unlock()
}

// Hold parks every pass that starts from now on until release is called,
// so that marks pile up behind it; a pass already under way finishes.
func (r *Reconciler[S]) Hold() (release func()) {
	r.hold.Lock()
	return sync.OnceFunc(r.hold.Unlock)
}

// Pass is one pass: up to passMax owed retirements and up to passMax dirty
// flows read under one read transaction, then the sink's Flush. It
// reports whether anything is still owed or dirty. Passes of one
// reconciler must not overlap; marks may come from any goroutine.
//
//yancvet:hotalloc
func (r *Reconciler[S]) Pass() (more bool) {
	r.hold.Lock() // parks here while a Hold is in force
	r.hold.Unlock()
	//yancvet:allow errdrop pass returns nil: it reports per flow
	_ = r.vfs.ReadTx(r.passFn)
	r.sink.Flush() // a slow switch or region holds neither the tree lock nor the marks
	r.mu.Lock()
	r.passes++
	more = len(r.gone) > 0 || len(r.dirty) > 0 || r.dirtyAll
	r.mu.Unlock()
	return more
}

// pass is Pass's read transaction, bound once as r.passFn.
//
//yancvet:hotalloc
func (r *Reconciler[S]) pass(tx *vfs.Tx) error {
	r.mu.Lock()
	r.takeLocked(tx)
	r.mu.Unlock()
	for _, d := range r.take {
		r.reconcileOne(tx, d)
	}
	clear(r.take) // the paths may belong to event strings
	r.take = r.take[:0]
	return nil
}

// takeLocked takes the pass's work in one hold of r.mu, so a flow marked
// after a remove is never taken without it: up to passMax owed
// retirements, and — once none is owed, since a flow read now may claim
// what one of those still holds — up to passMax dirty paths, after "all"
// has been expanded. A remove marked during the pass waits for the next:
// it may retire what this pass installs. A list or set a burst grew past
// passMax is dropped once empty (Go maps never shrink).
//
//yancvet:hotalloc
func (r *Reconciler[S]) takeLocked(tx *vfs.Tx) {
	n := min(len(r.gone), passMax)
	for _, s := range r.gone[:n] {
		r.sink.Retire(s)
	}
	k := copy(r.gone, r.gone[n:])
	clear(r.gone[k:]) // a view's states are slices
	r.gone = r.gone[:k]
	if len(r.gone) > 0 {
		return
	}
	if cap(r.gone) > passMax {
		r.gone = nil
	}
	if r.dirtyAll {
		r.dirtyAll = false
		r.sweepLocked(tx)
	}
	r.dirtyBig = r.dirtyBig || len(r.dirty) > passMax
	for path, sweep := range r.dirty {
		if len(r.take) == passMax {
			break
		}
		r.take = append(r.take, dirtyFlow{path, sweep})
		delete(r.dirty, path)
	}
	if len(r.dirty) == 0 && r.dirtyBig {
		r.dirty, r.dirtyBig = nil, false
	}
}

// sweepLocked marks every flow directory that exists and every flow that
// is installed; r.mu is held. The second half is what finds the entry
// whose directory was removed while events were being lost.
//
//yancvet:hotalloc
func (r *Reconciler[S]) sweepLocked(tx *vfs.Tx) {
	//yancvet:allow errdrop a flows directory that is missing lists as empty
	names, _ := tx.DirNames(r.dir, nil) //yancvet:alloc attach and overflow only
	for _, name := range names {
		r.markLocked(r.dir+"/"+name, true) //yancvet:alloc attach and overflow only: one path per flow directory
	}
	for name := range r.installed {
		r.markLocked(r.dir+"/"+name, true) //yancvet:alloc attach and overflow only: one path per installed flow
	}
}

// reconcileOne brings the sink in line with one flow directory, r.mu held
// from lookup to update, so a remove or rename marked meanwhile lands
// wholly before the comparison or wholly after it.
//
//yancvet:hotalloc
func (r *Reconciler[S]) reconcileOne(tx *vfs.Tx, d dirtyFlow) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reconciled++
	name := flowName(d.path)
	prev, known := r.installed[name]
	version, err := ReadFlowTx(tx, d.path, prev.version, &r.reader)
	if err != nil {
		if !errors.Is(err, vfs.ErrNotExist) && !errors.Is(err, vfs.ErrNotDir) {
			r.sink.Unreadable(d.path, err)
			return
		}
		// Gone. While events are intact its remove event retires the
		// entry (or already has); only a sweep may conclude from the
		// missing directory alone that the entry must go.
		if known && d.sweep {
			delete(r.installed, name)
			r.sink.Retire(prev.state)
		}
		return
	}
	if version == prev.version {
		// Not committed, or this commit is already installed: the second
		// event of a file-I/O commit, a rename, a sweep.
		if known {
			r.coalesced++
		}
		return
	}
	// The key is the directory's own name string. name is a piece of an
	// event's path, and assigning under it would pin that path for as
	// long as the flow is installed (a map assignment replaces the key).
	key := r.reader.Name
	if key != name {
		key = strings.Clone(name) //yancvet:alloc a flow directory reached through a symlink
	}
	r.installed[key] = entry[S]{r.sink.Install(d.path, version, &r.reader.Spec, prev.state, known), version}
}

// Installed returns what the table holds for the flow directory name.
func (r *Reconciler[S]) Installed(name string) (S, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.installed[name]
	return e.state, ok
}

// Forget drops the first installed entry whose state owns says is its
// own, without retiring it, and returns its name: what the driver does
// when the switch itself has let the entry go.
func (r *Reconciler[S]) Forget(owns func(S) bool) (name string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, e := range r.installed {
		if owns(e.state) {
			delete(r.installed, n)
			return n, true
		}
	}
	return "", false
}

// ReconcileStats is a reconciler's accounting: dirty paths, owed
// retirements, whether a pass over every name is owed, passes run, flows
// they looked at, and looks that found the version already installed.
type ReconcileStats struct {
	Dirty, Owed                   int
	All                           bool
	Passes, Reconciled, Coalesced uint64
}

// Stats snapshots the accounting.
func (r *Reconciler[S]) Stats() ReconcileStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReconcileStats{
		Dirty: len(r.dirty), Owed: len(r.gone), All: r.dirtyAll,
		Passes: r.passes, Reconciled: r.reconciled, Coalesced: r.coalesced,
	}
}

// FlowEvent is what a watch event under a region's switches/ directory
// means to the reconciler of one switch's flows directory.
type FlowEvent uint8

const (
	NoFlowEvent FlowEvent = iota
	FlowCommit            // flows/<name>/version was written
	FlowGone              // flows/<name> itself was removed
	FlowMove              // flows/<a> was renamed to flows/<b> on the same switch
)

// ClassifyFlowEvent names the switch an event under root (a switches/
// directory, with a trailing slash) belongs to and what it means to that
// switch's flow table; flowPath, a substring of the event's, is the flow
// directory. It allocates nothing. An overflow is not classified: it
// means MarkAll on every table.
//
//yancvet:hotalloc
func ClassifyFlowEvent(root string, ev *vfs.Event) (sw string, kind FlowEvent, flowPath string) {
	const version = "/" + FileVersion
	switch {
	case ev.Op == vfs.OpWrite && strings.HasSuffix(ev.Path, version):
		flowPath = ev.Path[:len(ev.Path)-len(version)]
		if sw, ok := flowDirUnder(root, flowPath); ok {
			return sw, FlowCommit, flowPath
		}
	case ev.Op == vfs.OpRemove && ev.IsDir:
		if sw, ok := flowDirUnder(root, ev.Path); ok {
			return sw, FlowGone, ev.Path
		}
	case ev.Op == vfs.OpRename:
		// A rename out of flows/, or into another switch's, is left to
		// the next reconcile-all.
		oldSw, wasFlow := flowDirUnder(root, ev.Path)
		newSw, isFlow := flowDirUnder(root, ev.NewPath)
		if wasFlow && isFlow && oldSw == newSw {
			return oldSw, FlowMove, ev.NewPath
		}
	}
	return "", NoFlowEvent, ""
}

// UnderSwitch cuts a path below root (which ends in a slash) into the
// switch name and the rest; ok is false for root, a switch directory
// itself, or anything outside root.
//
//yancvet:hotalloc
func UnderSwitch(root, p string) (sw, rest string, ok bool) {
	if !strings.HasPrefix(p, root) {
		return "", "", false
	}
	rel := p[len(root):]
	i := strings.IndexByte(rel, '/')
	if i <= 0 {
		return "", "", false
	}
	return rel[:i], rel[i+1:], true
}

// flowDirUnder is UnderSwitch for a path that must be a flow directory,
// <root><switch>/flows/<name>.
//
//yancvet:hotalloc
func flowDirUnder(root, p string) (sw string, ok bool) {
	const flows = "flows/"
	sw, rest, ok := UnderSwitch(root, p)
	ok = ok && len(rest) > len(flows) && strings.HasPrefix(rest, flows) &&
		strings.IndexByte(rest[len(flows):], '/') < 0
	return sw, ok
}
