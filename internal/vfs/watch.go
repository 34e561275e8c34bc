package vfs

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// EventOp is a bitmask of file-system event kinds, mirroring the inotify
// mask bits the paper's applications subscribe with (§5.2).
type EventOp uint32

const (
	OpCreate EventOp = 1 << iota
	OpWrite
	OpRemove
	OpRename
	OpChmod
	OpCloseWrite
	OpOverflow
)

// OpAll subscribes to every event kind.
const OpAll = OpCreate | OpWrite | OpRemove | OpRename | OpChmod | OpCloseWrite

func (op EventOp) String() string {
	var parts []string
	add := func(bit EventOp, name string) {
		if op&bit != 0 {
			parts = append(parts, name)
		}
	}
	add(OpCreate, "CREATE")
	add(OpWrite, "WRITE")
	add(OpRemove, "REMOVE")
	add(OpRename, "RENAME")
	add(OpChmod, "CHMOD")
	add(OpCloseWrite, "CLOSE_WRITE")
	add(OpOverflow, "OVERFLOW")
	if len(parts) == 0 {
		return "NONE"
	}
	return strings.Join(parts, "|")
}

// Event describes one file-system change.
//
// Path and NewPath are canonical by construction — absolute, in Clean's
// form, naming the object where it really is, whatever spelling, symlink
// or chroot the caller reached it through: the file system builds them
// from the tree (pathTo) or reuses a caller's string only after checking
// it is clean and crossed no link. Consumers may therefore split one at
// its last "/" without re-scanning it, and the fan-out does.
type Event struct {
	Op      EventOp
	Path    string // absolute path of the affected object
	NewPath string // for OpRename: the destination path
	IsDir   bool
}

// Watch is a subscription to events on a path (and optionally its whole
// subtree). Events arrive on C; if the consumer falls behind by more than
// the buffer capacity, events are dropped and a single Overflow event is
// queued, matching inotify's IN_Q_OVERFLOW behaviour.
type Watch struct {
	C <-chan Event

	id        uint64
	path      string // watched path, cleaned; "" never matches
	prefix    string // path + "/": what every path strictly below it starts with
	mask      EventOp
	recursive bool
	files     []string // file names taken; nil takes every name (Files)
	ch        chan Event
	set       *watchSet

	mu         sync.Mutex
	overflowed bool
	closed     bool

	// Queue-pressure accounting, exported via Info for the .proc/watch
	// files. drops counts events discarded (including marker evictions);
	// overflows counts distinct overflow episodes.
	drops     atomic.Uint64
	overflows atomic.Uint64
}

// Close removes the watch and closes its channel.
func (w *Watch) Close() {
	w.set.remove(w)
}

// WatchOption configures AddWatch.
type WatchOption func(*Watch)

// Recursive makes the watch cover the entire subtree under the path.
func Recursive() WatchOption {
	return func(w *Watch) { w.recursive = true }
}

// Files limits the file events the watch receives to files with one of
// the given names; for a rename, either the old or the new name may
// match. Directory events are never filtered. Each name must be a single
// path element, and at least one must be given: AddWatch returns
// ErrInvalid otherwise.
//
// A call that creates or removes a directory's worth of files
// (WriteTree, AttachFileSet, a subtree removal) builds a file's events
// only when some watch takes them, so a watch that names the few files
// it acts on spares every such writer in its region the rest.
func Files(names ...string) WatchOption {
	names = append(make([]string, 0, len(names)), names...) // non-nil: Files() is still a filter
	return func(w *Watch) { w.files = names }
}

// BufferSize sets the event channel capacity (default 1024).
func BufferSize(n int) WatchOption {
	return func(w *Watch) {
		if n > 0 {
			w.ch = make(chan Event, n)
		}
	}
}

type watchSet struct {
	mu      sync.RWMutex
	nextID  uint64
	watches map[uint64]*Watch
	// snap is an immutable snapshot of the watch list, rebuilt under mu
	// whenever a watch is added or removed, so fanout grabs a slice header
	// instead of copying the map on every batch.
	snap []*Watch
	// live mirrors len(snap) so hot paths (one interest probe per flow
	// in a bulk ring drain) can skip the RLock entirely while no watch
	// exists.
	live atomic.Int64

	// Async dispatch queue. Writers enqueue under qmu and return; a single
	// lazily-started worker goroutine drains the queue in FIFO order and
	// exits when it is empty. drained signals queue-empty to SyncWatches.
	// The queue holds whole per-transaction batches: dispatch takes
	// ownership of the caller's buffer, so enqueueing never copies events.
	qmu     sync.Mutex
	queue   []*[]Event
	running bool
	drained *sync.Cond
	batches atomic.Uint64 // worker drain batches, for .proc
	queued  atomic.Uint64 // events ever enqueued, for .proc

	// bufPool recycles event buffers: every mutating call borrows one,
	// dispatch takes ownership, and the drain worker returns it after
	// fanout. The pool holds *[]Event — the pointer travels with the batch
	// from getBuf to putBuf, so recycling boxes no slice header — and the
	// write path allocates no event storage at steady state.
	bufPool sync.Pool
}

// getBuf returns an empty event buffer, recycled when the pool has one.
//
//yancvet:hotalloc
func (s *watchSet) getBuf() *[]Event {
	if v := s.bufPool.Get(); v != nil {
		return v.(*[]Event)
	}
	return new([]Event) //yancvet:alloc pool miss: the buffer is recycled from here on
}

// putBuf returns an event buffer to the pool. Oversized buffers are
// dropped so one huge transaction doesn't pin memory forever.
//
//yancvet:hotalloc
func (s *watchSet) putBuf(b *[]Event) {
	if cap(*b) > 8192 {
		return
	}
	*b = (*b)[:0]
	s.bufPool.Put(b)
}

// post queues the one event of a call that has no transaction around it
// (a content write on an open handle, a chmod).
//
//yancvet:hotalloc
func (s *watchSet) post(ev Event) {
	if s.live.Load() == 0 {
		return
	}
	b := s.getBuf()
	*b = append(*b, ev)
	s.dispatch(b)
}

// AddWatch subscribes to events under path. The path need not exist yet —
// a watch on a directory sees events for entries created later, the usage
// pattern from §5.2 ("to monitor for new switches a watch can be placed
// on the switches directory").
func (p *Proc) AddWatch(path string, mask EventOp, opts ...WatchOption) (*Watch, error) {
	p.fs.stats.watches.Add(1)
	if mask == 0 {
		mask = OpAll
	}
	w := &Watch{
		path: Clean(path),
		mask: mask,
		ch:   make(chan Event, 1024),
		set:  &p.fs.watches,
	}
	for _, o := range opts {
		o(w)
	}
	if w.files != nil && !validNames(w.files) {
		return nil, pathErr("watch", path, ErrInvalid)
	}
	w.prefix = w.path + "/"
	if w.path == "/" {
		w.prefix = "/"
	}
	w.C = w.ch
	set := &p.fs.watches
	// Drain the async queue before registering: events that happened
	// before this call must not reach the new watch (inotify semantics —
	// a subscription starts from "now", not from the dispatcher backlog).
	set.waitDrained()
	set.mu.Lock()
	if set.watches == nil {
		set.watches = make(map[uint64]*Watch)
	}
	set.nextID++
	w.id = set.nextID
	set.watches[w.id] = w
	set.rebuildSnapLocked()
	set.mu.Unlock()
	return w, nil
}

// rebuildSnapLocked refreshes the immutable watch snapshot. mu must be
// held for writing.
func (s *watchSet) rebuildSnapLocked() {
	snap := make([]*Watch, 0, len(s.watches))
	for _, w := range s.watches {
		snap = append(snap, w)
	}
	s.snap = snap
	s.live.Store(int64(len(snap)))
}

func (s *watchSet) remove(w *Watch) {
	s.mu.Lock()
	_, present := s.watches[w.id]
	delete(s.watches, w.id)
	s.rebuildSnapLocked()
	s.mu.Unlock()
	if present {
		w.mu.Lock()
		if !w.closed {
			w.closed = true
			close(w.ch)
		}
		w.mu.Unlock()
	}
}

// matches reports whether the watch covers an event at path: either the
// path is directly inside the watched directory (inotify semantics: a
// watch on a dir reports its children and the dir itself), or anywhere
// beneath it when recursive.
func (w *Watch) matches(path string) bool {
	return w.matchesDir(path, eventDir(path))
}

// matchesDir is matches with the event path's parent precomputed: fanout
// checks one event against every watch, so the split is hoisted out of
// the per-watch loop.
//
//yancvet:hotalloc
func (w *Watch) matchesDir(path, dir string) bool {
	if path == w.path || dir == w.path {
		return true
	}
	return w.recursive && strings.HasPrefix(path, w.prefix)
}

// eventDir returns the parent of an event path: Dir without the clean
// scan, which an event path never needs (see Event).
//
//yancvet:hotalloc
func eventDir(path string) string {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	return "/"
}

// interestLists bounds the name filters an interest carries; past it
// the interest takes every name, which only costs pruning.
const interestLists = 4

// interest is what the live watches can take of the events strictly
// inside one directory: the union of their masks, and the file names
// they take. Writers consult it per child before building an event's
// path, so an event no watch can take is never built or queued.
type interest struct {
	mask  EventOp
	all   bool // some watch takes every name
	n     int
	lists [interestLists][]string
}

// childInterest reports what the live watches can take inside dir: a
// recursive watch whose subtree contains dir, or any watch rooted at or
// below dir. An unfiltered watch among them makes every name taken.
//
//yancvet:hotalloc
func (s *watchSet) childInterest(dir string) (in interest) {
	if s.live.Load() == 0 {
		return in
	}
	s.mu.RLock()
	watches := s.snap
	s.mu.RUnlock()
	for _, w := range watches {
		if w.path != dir && !below(w.path, dir) && !(w.recursive && strings.HasPrefix(dir, w.prefix)) {
			continue
		}
		in.mask |= w.mask
		in.add(w)
	}
	return in
}

// add takes w's file names into the interest.
//
//yancvet:hotalloc
func (in *interest) add(w *Watch) {
	if in.all {
		return
	}
	if w.files == nil || in.n == interestLists {
		in.all = true
		return
	}
	in.lists[in.n] = w.files
	in.n++
}

// file reports whether some watch can take an op event on a file child
// called name.
//
//yancvet:hotalloc
func (in *interest) file(op EventOp, name string) bool {
	if in.mask&op == 0 {
		return false
	}
	if in.all {
		return true
	}
	for _, l := range in.lists[:in.n] {
		if hasName(l, name) {
			return true
		}
	}
	return false
}

// hasName reports whether names holds name: a plain loop, which the
// fan-out and the writers run per event.
//
//yancvet:hotalloc
func hasName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// validNames reports whether a Files filter names at least one file and
// each name is a single path element.
func validNames(names []string) bool {
	for _, n := range names {
		if !isCleanName(n) {
			return false
		}
	}
	return len(names) > 0
}

// below reports whether the clean path lies strictly inside the clean
// directory dir.
func below(path, dir string) bool {
	if dir == "/" {
		return len(path) > 1
	}
	return len(path) > len(dir) && path[len(dir)] == '/' && strings.HasPrefix(path, dir)
}

// interestedInGrandchildren reports whether any watch could observe an
// event strictly inside *some child* of dir — a conservative superset of
// childInterest(child) being non-empty over all children. Batch removal (drop-oldest
// evicting many message dirs from one buffer) computes this once per batch
// instead of scanning the watch list once per evicted directory.
func (s *watchSet) interestedInGrandchildren(dir string) bool {
	if s.live.Load() == 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, w := range s.watches {
		if below(w.path, dir) {
			return true
		}
		if w.recursive && (w.path == dir || strings.HasPrefix(dir, w.prefix)) {
			return true
		}
	}
	return false
}

// condLocked returns the queue-drained condition, creating it on first
// use. qmu must be held.
func (s *watchSet) condLocked() *sync.Cond {
	if s.drained == nil {
		s.drained = sync.NewCond(&s.qmu)
	}
	return s.drained
}

// dispatch hands events to the asynchronous dispatcher and returns
// immediately: the write path never pays matching or delivery cost, and a
// watch-heavy workload can never stall writers. Called without the tree
// lock — and, critically, only after the transaction's children-snapshot
// swaps have been published, so a subscriber that reacts to an event by
// resolving the event's path (lock-free or not) always observes the
// post-swap tree (pinned by TestStressWatchPostSwapVisibility).
// Ordering is preserved — a single worker drains the queue FIFO.
// dispatch takes ownership of events (a buffer from getBuf); the caller
// must not touch it again.
//
//yancvet:hotalloc
func (s *watchSet) dispatch(events *[]Event) {
	if len(*events) == 0 || s.live.Load() == 0 {
		// Nothing to say, or no subscribers: drop without queueing. A
		// watch added after this point could not have seen these events
		// under the synchronous scheme either.
		s.putBuf(events)
		return
	}
	s.qmu.Lock()
	s.queue = append(s.queue, events)
	s.queued.Add(uint64(len(*events)))
	if !s.running {
		s.running = true
		go s.drain() //yancvet:alloc one worker per burst of batches, not per batch
	}
	s.qmu.Unlock()
}

// drain is the dispatcher worker: it repeatedly swaps the queue out and
// fans each batch out to the matching watches, exiting when the queue is
// empty. Delivery itself never blocks (deliver drops on a full channel),
// so the queue empties at memory speed regardless of consumers.
func (s *watchSet) drain() {
	for {
		s.qmu.Lock()
		if len(s.queue) == 0 {
			s.running = false
			s.condLocked().Broadcast()
			s.qmu.Unlock()
			return
		}
		batches := s.queue
		s.queue = nil
		s.batches.Add(1)
		s.qmu.Unlock()
		for _, batch := range batches {
			s.fanout(*batch)
			s.putBuf(batch)
		}
	}
}

// fanout synchronously delivers a batch to all matching watches.
//
//yancvet:hotalloc
func (s *watchSet) fanout(events []Event) {
	s.mu.RLock()
	watches := s.snap
	s.mu.RUnlock()
	if len(watches) == 0 {
		return
	}
	for _, ev := range events {
		dir := eventDir(ev.Path)
		newDir := ""
		if ev.Op == OpRename {
			newDir = eventDir(ev.NewPath)
		}
		for _, w := range watches {
			if ev.Op&w.mask == 0 {
				continue
			}
			if !w.matchesDir(ev.Path, dir) &&
				!(ev.Op == OpRename && w.matchesDir(ev.NewPath, newDir)) {
				continue
			}
			if w.files != nil && !ev.IsDir && !w.takes(&ev) {
				continue
			}
			w.deliver(ev)
		}
	}
}

// takes reports whether a filtered watch takes a file event: the file's
// name, or for a rename either name, is one it lists.
//
//yancvet:hotalloc
func (w *Watch) takes(ev *Event) bool {
	return hasName(w.files, eventBase(ev.Path)) ||
		ev.Op == OpRename && hasName(w.files, eventBase(ev.NewPath))
}

// eventBase returns the last element of an event path.
//
//yancvet:hotalloc
func eventBase(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

// waitDrained blocks until the dispatch queue is empty and the worker has
// exited. Callers must not hold the tree lock (the worker never takes it,
// but a writer blocked on the tree lock could never enqueue the events
// this wait would otherwise race with).
func (s *watchSet) waitDrained() {
	s.qmu.Lock()
	for s.running || len(s.queue) > 0 {
		s.condLocked().Wait()
	}
	s.qmu.Unlock()
}

// SyncWatches blocks until every event enqueued before the call has been
// delivered (or counted as dropped) on all watches. Tests and anything
// that asserts on watch channels after performing writes should call this
// barrier; production consumers just read their channels.
func (fs *FS) SyncWatches() {
	fs.watches.waitDrained()
}

// DispatchStats reports async-dispatcher gauges for .proc: events ever
// enqueued, worker drain batches, and the current backlog.
func (fs *FS) DispatchStats() (queued, batches uint64, backlog int) {
	s := &fs.watches
	s.qmu.Lock()
	for _, b := range s.queue {
		backlog += len(*b)
	}
	s.qmu.Unlock()
	return s.queued.Load(), s.batches.Load(), backlog
}

func (w *Watch) deliver(ev Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	select {
	case w.ch <- ev:
		w.overflowed = false
		return
	default:
	}
	// Queue full: the event is lost either way. The consumer must learn
	// about the gap (IN_Q_OVERFLOW), so on the first drop of an episode the
	// marker slot is reserved unconditionally — evict queued events until
	// the marker fits, never bailing out on a failed send the way a single
	// non-blocking attempt could if the consumer raced a slot away.
	w.drops.Add(1)
	if w.overflowed {
		return
	}
	w.overflowed = true
	w.overflows.Add(1)
	for {
		select {
		case w.ch <- Event{Op: OpOverflow}:
			return
		default:
		}
		select {
		case <-w.ch:
			w.drops.Add(1)
		default:
		}
	}
}

// WatchInfo is a point-in-time description of one watch's subscription and
// queue pressure, the row format behind .proc/watch/queues.
type WatchInfo struct {
	ID        uint64
	Path      string
	Mask      EventOp
	Recursive bool
	Files     []string // the Files filter; nil when the watch takes every name
	Depth     int      // events currently queued
	Capacity  int
	Drops     uint64
	Overflows uint64
}

// Info snapshots the watch's subscription and queue gauges.
func (w *Watch) Info() WatchInfo {
	return WatchInfo{
		ID:        w.id,
		Path:      w.path,
		Mask:      w.mask,
		Recursive: w.recursive,
		Files:     slices.Clone(w.files),
		Depth:     len(w.ch),
		Capacity:  cap(w.ch),
		Drops:     w.drops.Load(),
		Overflows: w.overflows.Load(),
	}
}

// WatchInfos snapshots every live watch, ordered by id.
func (fs *FS) WatchInfos() []WatchInfo {
	s := &fs.watches
	s.mu.RLock()
	out := make([]WatchInfo, 0, len(s.watches))
	for _, w := range s.watches {
		out = append(out, w.Info())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
