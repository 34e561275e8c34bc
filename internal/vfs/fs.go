// Package vfs implements an in-memory POSIX-like virtual file system: the
// substrate yanc needs in place of the Linux VFS + FUSE. It provides
// inodes, directories, regular files, symbolic links, hard links, rename,
// Unix permissions, extended attributes, inotify-style watches, synthetic
// (procfs-like) files, and semantic-directory hooks that let the yanc
// layer auto-create typed children on mkdir(), exactly as §3.1 of the
// paper describes.
//
// The API is deliberately syscall-shaped (Mkdir, Create, Open, Rename,
// Symlink, Stat, ...) and every call is counted, because the paper's §8.1
// performance argument is about the number of such calls. The openat(2)
// family is there too (at.go): DirRef or MkdirRef resolves a directory
// once, and ExistsAt, ReadFileAt, ReadFileSharedAt, WriteFileAt, RemoveAt
// and ReadDirAt name an entry relative to it — counted and charged as
// the path-based calls they replace, minus the walk from the root.
//
// Concurrency: the tree scales on multicore through three levels — lock-
// free path resolution over immutable children snapshots (see
// resolve_rcu.go), a structural tree lock for writers, and ino-sharded
// inode-state stripes (see lock.go and DESIGN.md §8). The read-mostly
// hot paths (stat, readdir, open-existing, xattr reads, whole-file reads
// and whole-file writes of existing files) take no tree lock at all.
package vfs

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSymlinkHops bounds symlink resolution, mirroring Linux's ELOOP limit.
const maxSymlinkHops = 40

// Synthetic makes a file behave like a procfs entry: content is produced
// on open-for-read and consumed on close-after-write. With no read func
// the file is write-only, with no Write read-only. Providers run
// outside all tree locks (from the open/close path) and may perform
// arbitrary file I/O of their own.
type Synthetic struct {
	Read func() ([]byte, error)
	// ReadPath, when set, is called in place of Read and is handed the
	// real path the file was opened through, so one provider can serve
	// the same file under many directories (a flow's counters) and answers
	// for where the file is now, not where it was when it was planted.
	ReadPath func(path string) ([]byte, error)
	Write    func(data []byte) error
}

// readable reports whether the file can produce content on open.
func (s *Synthetic) readable() bool { return s.Read != nil || s.ReadPath != nil }

// read produces the content for an open through path.
func (s *Synthetic) read(path string) ([]byte, error) {
	if s.ReadPath != nil {
		return s.ReadPath(path)
	}
	return s.Read()
}

// DirSemantics attaches yanc object behaviour to a directory. Hooks run
// with the tree lock held in write mode and must only touch the tree
// through the Tx they are handed: calling a Proc-level entry point from a
// hook re-acquires the tree lock and self-deadlocks.
type DirSemantics struct {
	// OnMkdir runs after a child directory of this directory was created.
	// yanc uses it to populate typed children ("mkdir views/new_view"
	// also creates hosts/, switches/, views/).
	OnMkdir func(tx *Tx, dir, name string) error
	// OnCreate runs after a child regular file was created.
	OnCreate func(tx *Tx, dir, name string) error
	// OnRemove runs after a child was removed (for either rmdir or unlink).
	OnRemove func(tx *Tx, dir, name string, kind NodeKind)
	// ValidateSymlink vets a symlink created in this directory; yanc uses
	// it to enforce that a port's "peer" link points at another port.
	ValidateSymlink func(tx *Tx, dir, name, target string) error
	// RecursiveRmdir permits rmdir on non-empty child directories,
	// removing the subtree ("the rmdir() call for switches is
	// automatically recursive").
	RecursiveRmdir bool
	// Protected children cannot be removed or renamed by non-root.
	Protected map[string]bool
}

// inode field locking. An inode carries only what every node uses; what
// only directories use lives in dirState, and the rare per-node extras
// (synthetic provider, symlink target, xattrs) in inodeExt, so the 14
// leaf files of a flow directory do not each pay for them.
//
//   - ino, kind, dir: immutable after creation. dir is non-nil exactly
//     for directories.
//   - mode, uid, gid, nlink: atomics, read lock-free (resolution and
//     stat touch them with no locks held); stored under the tree write
//     lock (chmod/chown: the tree read lock).
//   - ext: set-once. Nil until the node first needs an extra, then
//     published by compare-and-swap (extend) and never replaced, so a
//     loaded pointer stays valid without any lock. Its fields keep their
//     own rules — see inodeExt.
//   - data, dataShared, txMark, atime, mtime, ctime, version:
//     inode-local — every access, read or write, requires the inode's
//     shard stripe.
//     The tree write lock is NOT enough on its own: lock-free resolution
//     means stripe-only readers (File.Read/Write, whole-file reads,
//     lock-free Stat) can run concurrently with structural operations.
//     dataShared marks data as an interned slice shared across inodes
//     (see intern.go): writers must replace it, never mutate in place.
//     txMark names the transaction that created the node or last wrote
//     data (0: none did); content readers outside the tree lock compare
//     it with FS.txLive and wait that transaction out (rlockContent).
type inode struct {
	ino  uint64
	mode atomic.Uint32 // FileMode bits
	uid  atomic.Int32
	gid  atomic.Int32
	kind NodeKind
	// dataShared marks data as an interned copy-on-write slice
	// (stripe-guarded like data itself). It sits beside kind so the two
	// share one word with txMark.
	dataShared bool
	txMark     uint16
	nlink      atomic.Int64

	// Timestamps are kept as Unix nanoseconds, not time.Time: a
	// time.Time is 24 bytes and carries a monotonic-clock word and a
	// location pointer no inode needs, so three of them cost 72 bytes
	// per inode. At the 10⁶-flow-dir scale yancload drives, the int64
	// form saves ~48 bytes per inode (statOf converts back on demand).
	atime   int64 // unix nanoseconds
	mtime   int64
	ctime   int64
	version uint64
	data    []byte

	dir *dirState
	ext atomic.Pointer[inodeExt]
}

// dirState is what only a directory needs.
//
//   - children, gen: the published children trie and its generation.
//     Replaced (never mutated) via setKids under the tree write lock;
//     read lock-free by the RCU walker (resolve_rcu.go). gen's top bit
//     (genDead, at.go) is set once, when the directory is removed.
//   - parent, name, sem: structural — mutated only under the tree write
//     lock, readable under either tree mode. parent/name give a
//     directory its unique path (regular files may have many names via
//     hard links and record none). The lock-free walker never touches
//     them (it bails on "..").
type dirState struct {
	children atomic.Pointer[dirNode]
	gen      atomic.Uint64
	parent   *inode
	name     string
	sem      *DirSemantics
}

// inodeExt holds the fields few nodes ever use.
//
//   - synth: atomic, read lock-free by the open path; stored under the
//     tree write lock.
//   - target: a symlink's target, immutable after creation.
//   - xattrs: inode-local — requires the inode's shard stripe like data.
type inodeExt struct {
	synth  atomic.Pointer[Synthetic]
	target string
	xattrs map[string][]byte
}

// extend returns n's extension, publishing an empty one first if n has
// none. Racing callers converge on one struct: the compare-and-swap
// admits a single winner and everyone loads it.
func (n *inode) extend() *inodeExt {
	if e := n.ext.Load(); e != nil {
		return e
	}
	n.ext.CompareAndSwap(nil, &inodeExt{})
	return n.ext.Load()
}

// target returns a symlink's target ("" for anything else).
func (n *inode) target() string {
	if e := n.ext.Load(); e != nil {
		return e.target
	}
	return ""
}

// xattrs returns the node's attribute map (nil when it has none). The
// caller must hold the inode's stripe.
func (n *inode) xattrs() map[string][]byte {
	if e := n.ext.Load(); e != nil {
		return e.xattrs
	}
	return nil
}

func (n *inode) isDir() bool { return n.kind == KindDir }

func (n *inode) loadMode() FileMode   { return FileMode(n.mode.Load()) }
func (n *inode) storeMode(m FileMode) { n.mode.Store(uint32(m)) }
func (n *inode) loadUID() int         { return int(n.uid.Load()) }
func (n *inode) loadGID() int         { return int(n.gid.Load()) }
func (n *inode) storeOwner(uid, gid int) {
	n.uid.Store(int32(uid))
	n.gid.Store(int32(gid))
}

// touchC updates ctime and version (metadata change). Caller must hold
// the inode's stripe in write mode (the tree write lock alone is NOT
// sufficient once the inode is published — see touchCS/touchMS). The
// only exception is an inode not yet inserted into the tree, which no
// other goroutine can reach.
func (n *inode) touchC(now time.Time) {
	n.ctime = now.UnixNano()
	n.version++
}

// touchM updates mtime+ctime and version (content change). Same locking
// contract as touchC.
func (n *inode) touchM(now time.Time) {
	ns := now.UnixNano()
	n.mtime = ns
	n.ctime = ns
	n.version++
}

// OpStats counts VFS entry points, the in-process analog of the system
// calls (and thus context switches) §8.1 of the paper is concerned with.
type OpStats struct {
	Lookups  uint64
	Opens    uint64
	Reads    uint64
	Writes   uint64
	Creates  uint64
	Removes  uint64
	Renames  uint64
	Stats    uint64
	Links    uint64
	Attrs    uint64
	ReadDirs uint64
	Watches  uint64
}

// Total returns the total number of counted entry points — the in-process
// stand-in for system calls / context switches in §8.1's cost model.
// Per-component Lookups are excluded: path resolution happens inside the
// "kernel" and does not cross the boundary on its own.
func (s OpStats) Total() uint64 {
	return s.Opens + s.Reads + s.Writes + s.Creates + s.Removes +
		s.Renames + s.Stats + s.Links + s.Attrs + s.ReadDirs + s.Watches
}

// Sub returns the counter deltas s - prev, for reporting the operation
// mix of a measured interval.
func (s OpStats) Sub(prev OpStats) OpStats {
	return OpStats{
		Lookups:  s.Lookups - prev.Lookups,
		Opens:    s.Opens - prev.Opens,
		Reads:    s.Reads - prev.Reads,
		Writes:   s.Writes - prev.Writes,
		Creates:  s.Creates - prev.Creates,
		Removes:  s.Removes - prev.Removes,
		Renames:  s.Renames - prev.Renames,
		Stats:    s.Stats - prev.Stats,
		Links:    s.Links - prev.Links,
		Attrs:    s.Attrs - prev.Attrs,
		ReadDirs: s.ReadDirs - prev.ReadDirs,
		Watches:  s.Watches - prev.Watches,
	}
}

type statCounters struct {
	lookups, opens, reads, writes, creates, removes atomic.Uint64
	renames, stats, links, attrs, readdirs, watches atomic.Uint64
}

func (c *statCounters) snapshot() OpStats {
	return OpStats{
		Lookups:  c.lookups.Load(),
		Opens:    c.opens.Load(),
		Reads:    c.reads.Load(),
		Writes:   c.writes.Load(),
		Creates:  c.creates.Load(),
		Removes:  c.removes.Load(),
		Renames:  c.renames.Load(),
		Stats:    c.stats.Load(),
		Links:    c.links.Load(),
		Attrs:    c.attrs.Load(),
		ReadDirs: c.readdirs.Load(),
		Watches:  c.watches.Load(),
	}
}

// FS is a single in-memory file system instance.
type FS struct {
	tree    sync.RWMutex // structural lock; see lock.go
	shards  [LockShards]shardLock
	lockCtr lockCounters

	root    *inode
	nextIno atomic.Uint64
	// txLive is the mark of the WithTx in flight (0 when there is none)
	// and txN the number of transactions begun, which the next mark is
	// cut from; txN is guarded by the tree write lock. See rlockContent.
	txLive  atomic.Uint32
	txN     uint64
	clock   atomic.Pointer[func() time.Time]
	watches watchSet
	stats   statCounters
	lat     latencySet
	// roTx is the handle every ReadTx hands out. A read-only Tx carries no
	// state of its own, so one serves all readers at once and opening a
	// read transaction allocates nothing.
	roTx Tx
}

// New creates an empty file system whose root is owned by root:root with
// mode 0755.
func New() *FS {
	fs := &FS{}
	fs.roTx = Tx{fs: fs, ro: true}
	clk := time.Now
	fs.clock.Store(&clk)
	fs.root = fs.newInode(KindDir, 0o755, 0, 0)
	fs.root.dir.name = "/"
	return fs
}

// now returns the current time from the installed clock. The clock
// pointer is atomic so stripe-only writers (File.Write) and lock-free
// readers never need a tree lock to read time.
func (fs *FS) now() time.Time { return (*fs.clock.Load())() }

// SetClock replaces the time source (tests use a fake clock).
func (fs *FS) SetClock(clock func() time.Time) {
	fs.clock.Store(&clock)
}

// Now returns the file system's notion of the current time — the clock
// installed via SetClock. Components that stamp times into files (e.g.
// the driver's last_seen) must use this rather than time.Now so that
// simulated time in tests stays consistent with inode timestamps.
func (fs *FS) Now() time.Time { return fs.now() }

// Stats returns a snapshot of the operation counters.
func (fs *FS) Stats() OpStats { return fs.stats.snapshot() }

// bareInode creates an unpublished inode stamped with the caller's
// timestamp. A directory and its dirState come from one allocation and
// start with no children (the empty trie is nil).
func (fs *FS) bareInode(kind NodeKind, mode FileMode, uid, gid int, now time.Time) *inode {
	if kind == KindDir {
		//yancvet:alloc the inode is the operation's product, adopted by the tree
		d := &struct {
			node inode
			dir  dirState
		}{}
		return fs.initInode(&d.node, &d.dir, kind, mode, uid, gid, now.UnixNano())
	}
	//yancvet:alloc the inode is the operation's product, adopted by the tree
	return fs.initInode(&inode{}, nil, kind, mode, uid, gid, now.UnixNano())
}

// initInode fills a zeroed inode in place; dir is its directory state,
// non-nil exactly when kind is KindDir.
func (fs *FS) initInode(n *inode, dir *dirState, kind NodeKind, mode FileMode, uid, gid int, ns int64) *inode {
	n.ino = fs.nextIno.Add(1)
	n.kind = kind
	n.txMark = uint16(fs.txLive.Load())
	n.atime, n.mtime, n.ctime = ns, ns, ns
	n.dir = dir
	links := int64(1)
	if dir != nil {
		links = 2
	}
	n.nlink.Store(links)
	n.storeMode(mode)
	n.storeOwner(uid, gid)
	return n
}

// newInode creates an unpublished inode stamped with the current time.
func (fs *FS) newInode(kind NodeKind, mode FileMode, uid, gid int) *inode {
	return fs.bareInode(kind, mode, uid, gid, fs.now())
}

// splitPath cleans a slash-separated path into components, dropping empty
// and "." segments. ".." is kept and handled during resolution.
func splitPath(path string) []string {
	parts := strings.Split(path, "/") //yancvet:alloc only paths not already clean are split
	out := parts[:0]
	for _, p := range parts {
		if p == "" || p == "." {
			continue
		}
		out = append(out, p)
	}
	return out
}

// isClean reports whether path is already in Clean's canonical form: it
// begins with "/", ends with a non-slash (except the root itself), and has
// no empty, "." or ".." components. Paths built by the fs itself (event
// paths, resolved names) are always canonical, so the common case of
// re-cleaning them can return the input without allocating.
func isClean(path string) bool {
	if len(path) == 0 || path[0] != '/' {
		return false
	}
	if path == "/" {
		return true
	}
	start := 1
	for i := 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		n := i - start
		if n == 0 {
			return false // "//" or trailing "/"
		}
		if path[start] == '.' && (n == 1 || (n == 2 && path[start+1] == '.')) {
			return false
		}
		start = i + 1
	}
	return true
}

// isCleanName reports whether name is a single canonical path component.
func isCleanName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsRune(name, '/')
}

// Clean normalizes a path to an absolute, "/"-rooted form without "." or
// ".." components (".." above the root clamps to the root).
func Clean(path string) string {
	if isClean(path) {
		return path
	}
	var stack []string
	for _, p := range splitPath(path) {
		if p == ".." {
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
			continue
		}
		stack = append(stack, p)
	}
	return "/" + strings.Join(stack, "/")
}

// Base returns the last element of path.
func Base(path string) string {
	if isClean(path) {
		if path == "/" {
			return "/"
		}
		return path[strings.LastIndexByte(path, '/')+1:]
	}
	parts := splitPath(path)
	if len(parts) == 0 {
		return "/"
	}
	return parts[len(parts)-1]
}

// Dir returns all but the last element of path.
func Dir(path string) string {
	if isClean(path) {
		i := strings.LastIndexByte(path, '/')
		if i <= 0 {
			return "/"
		}
		return path[:i]
	}
	parts := splitPath(path)
	if len(parts) <= 1 {
		return "/"
	}
	return "/" + strings.Join(parts[:len(parts)-1], "/")
}

// Join joins path elements with slashes and cleans the result. The
// dominant caller shape — an already-clean directory plus one component —
// is a single concatenation.
func Join(elem ...string) string {
	if len(elem) == 2 && isClean(elem[0]) && isCleanName(elem[1]) {
		if elem[0] == "/" {
			return "/" + elem[1]
		}
		return elem[0] + "/" + elem[1]
	}
	return Clean(strings.Join(elem, "/"))
}

// pathOf reconstructs the absolute path of a directory (directories have
// unique parents). Must be called with the tree lock held in either mode.
func pathOf(n *inode) string {
	if n.dir.parent == nil {
		return "/"
	}
	var parts []string
	for cur := n; cur.dir.parent != nil; cur = cur.dir.parent {
		parts = append(parts, cur.dir.name) //yancvet:alloc a semantic hook's directory path; hot callers build event paths with pathTo
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/") //yancvet:alloc as above
}

// pathTo returns Join(pathOf(dir), name) in one allocation: the write path
// builds an event path per mutation, so this is hot. Must be called with
// the tree lock held in either mode.
func pathTo(dir *inode, name string) string {
	path, _ := pathBelow(nil, dir, name)
	return path
}

// pathBelow is pathTo as a Proc rooted at root (nil: the file system
// root) spells it. ok is false when dir does not lie below root — or
// anywhere: a removed directory has no parent — and the path is then the
// part that could be walked.
func pathBelow(root, dir *inode, name string) (path string, ok bool) {
	var anc [16]*inode
	stack := anc[:0]
	size := 1 + len(name)
	cur := dir
	for ; cur != root && cur.dir.parent != nil; cur = cur.dir.parent {
		size += len(cur.dir.name) + 1
		stack = append(stack, cur)
	}
	ok = cur == root || (root == nil && cur.dir.parent == nil)
	var b strings.Builder
	b.Grow(size) //yancvet:alloc one owned event-path string per mutation, by the Event contract
	for i := len(stack) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(stack[i].dir.name)
	}
	b.WriteByte('/')
	b.WriteString(name)
	return b.String(), ok
}

// resolveOpts controls path resolution.
type resolveOpts struct {
	followLast bool   // follow a symlink in the final component
	root       *inode // resolution root ("" = fs.root); namespaces set this
}

// resolve walks path from root, enforcing exec permission on every
// directory traversed, following symlinks (up to maxSymlinkHops). It
// returns the parent directory, the final name, and the node itself (nil
// if the final component does not exist). The tree lock must be held in
// either mode; resolution touches only structural state and lock-free
// permission atomics, so it takes no stripe locks.
func (fs *FS) resolve(cred Cred, path string, opt resolveOpts) (parent *inode, name string, node *inode, err error) {
	root := opt.root
	if root == nil {
		root = fs.root
	}
	hops := 0
	return fs.walkFrom(root, path, cred, opt, root, &hops)
}

// nextComp scans path from offset i for the next component, skipping
// slashes and "." entries. It returns the component as a substring (no
// allocation), the offset to resume from, and whether one was found.
func nextComp(path string, i int) (string, int, bool) {
	n := len(path)
	for i < n {
		for i < n && path[i] == '/' {
			i++
		}
		j := i
		for j < n && path[j] != '/' {
			j++
		}
		if j > i && path[i:j] != "." {
			return path[i:j], j, true
		}
		i = j
	}
	return "", n, false
}

// walkFrom is resolve's iterative walker: it scans path components in
// place (no split allocation) and recurses only to follow symlink targets.
func (fs *FS) walkFrom(cur *inode, path string, cred Cred, opt resolveOpts, root *inode, hops *int) (*inode, string, *inode, error) {
	p, off, ok := nextComp(path, 0)
	if !ok {
		// Empty path: the node is the starting directory itself.
		return cur.dir.parent, cur.dir.name, cur, nil
	}
	for {
		if !cur.isDir() {
			return nil, "", nil, ErrNotDir
		}
		if !allows(cur, cred, wantExec) {
			return nil, "", nil, ErrAccess
		}
		np, noff, more := nextComp(path, off)
		last := !more
		if p == ".." {
			if cur != root && cur.dir.parent != nil {
				cur = cur.dir.parent
			}
			if last {
				return cur.dir.parent, cur.dir.name, cur, nil
			}
			p, off = np, noff
			continue
		}
		fs.stats.lookups.Add(1)
		child, okc := cur.lookupChild(p)
		if !okc {
			if last {
				return cur, p, nil, nil
			}
			return nil, "", nil, ErrNotExist
		}
		if child.kind == KindSymlink && (!last || opt.followLast) {
			*hops++
			if *hops > maxSymlinkHops {
				return nil, "", nil, ErrTooManyLinks
			}
			start := cur
			if strings.HasPrefix(child.target(), "/") {
				start = root
			}
			par, nm, nd, werr := fs.walkFrom(start, child.target(), cred, opt, root, hops)
			if werr != nil {
				return nil, "", nil, werr
			}
			if nd == nil {
				if last {
					// Dangling symlink as final component: report the
					// link's own parent/name so create-through-symlink
					// lands at the target location.
					return par, nm, nil, nil
				}
				return nil, "", nil, ErrNotExist
			}
			if last {
				return par, nm, nd, nil
			}
			cur = nd
			p, off = np, noff
			continue
		}
		if last {
			return cur, p, child, nil
		}
		cur = child
		p, off = np, noff
	}
}

// Tx is a transactional view of the tree handed to semantic hooks and to
// the yanc layer for multi-step structural operations that must be atomic
// with respect to other file-system users. All Tx methods run with the
// tree lock held and bypass permission checks (they are "kernel code").
type Tx struct {
	fs      *FS
	events  *[]Event // pooled buffer (watchSet.getBuf); nil on a read-only Tx
	creator Cred
	hasCred bool
	ro      bool // opened by ReadTx: tree lock held in read mode
}

// Creator returns the credential of the process whose operation triggered
// the current hook (Root when the transaction was opened directly).
// Semantic-mkdir hooks use it so skeleton entries belong to the user who
// made the object, the way mkdir(2) ownership works.
func (tx *Tx) Creator() Cred {
	if tx.hasCred {
		return tx.creator
	}
	return Root
}

// WithTx runs fn while holding the tree lock in write mode, then delivers
// the events fn queued. This is the primitive libyanc's batch fastpath
// builds on. Note that a transaction serializes against every other
// file-system operation — it is the whole-tree critical section; the
// syscall-shaped entry points are the scalable path. Lock-free walks can
// watch its structural steps land one by one, but the content of a file
// it creates or rewrites is kept from Proc readers until fn returns (see
// rlockContent).
func (fs *FS) WithTx(fn func(tx *Tx) error) error {
	fs.lockTree()
	// Marks are 16 bits and never 0, so they repeat every 65,535
	// transactions: a reader can mistake a long-committed write for the
	// live transaction's, which costs it a wait, never a wrong answer.
	fs.txN++
	fs.txLive.Store(uint32(fs.txN%math.MaxUint16) + 1)
	tx := fs.newTx()
	err := fn(tx)
	fs.txLive.Store(0)
	fs.unlockTree()
	tx.flush()
	return err
}

// newTx opens the transaction behind one mutating call. The caller holds
// (or is about to take) the tree write lock and ends with flush.
func (fs *FS) newTx() *Tx {
	return &Tx{fs: fs, events: fs.watches.getBuf()} //yancvet:alloc the Tx is handed to semantic hooks, which may keep it for the call
}

// flush hands the queued events to the dispatcher. It runs after the tree
// lock is released: subscribers must find the tree as the events describe
// it (see watchSet.dispatch).
func (tx *Tx) flush() {
	tx.fs.watches.dispatch(tx.events)
	tx.events = nil
}

// discard drops the events queued so far: the operation that raised them
// was vetoed and rolled back.
func (tx *Tx) discard() { *tx.events = (*tx.events)[:0] }

// ReadTx runs fn while holding the tree lock in read mode. fn must not
// mutate the tree: only the read-only Tx methods are safe.
//
//yancvet:hotalloc
func (fs *FS) ReadTx(fn func(tx *Tx) error) error {
	fs.rlockTree()
	err := fn(&fs.roTx)
	fs.runlockTree()
	return err
}

func (tx *Tx) queue(ev Event) { *tx.events = append(*tx.events, ev) }

// ReserveEvents pre-sizes the transaction's event queue. Batch writers
// that know roughly how many events they will generate (the packet-in
// fan-out queues ~20 per message) call this once to avoid repeated
// slice growth inside the tree-lock critical section.
func (tx *Tx) ReserveEvents(n int) {
	if evs := *tx.events; n > cap(evs)-len(evs) {
		grown := make([]Event, len(evs), len(evs)+n)
		copy(grown, evs)
		*tx.events = grown
	}
}

// node resolves path (following symlinks) with root credentials.
func (tx *Tx) node(path string) (*inode, error) {
	_, _, n, err := tx.fs.resolve(Root, path, resolveOpts{followLast: true})
	if err != nil {
		return nil, err
	}
	if n == nil {
		return nil, ErrNotExist
	}
	return n, nil
}

// Exists reports whether path resolves to a node.
func (tx *Tx) Exists(path string) bool {
	n, err := tx.node(path)
	return err == nil && n != nil
}

// IsDir reports whether path resolves to a directory.
func (tx *Tx) IsDir(path string) bool {
	n, err := tx.node(path)
	return err == nil && n != nil && n.isDir()
}

// Mkdir creates a directory. Parent hooks are NOT invoked (hooks create
// structure themselves and must not recurse).
func (tx *Tx) Mkdir(path string, mode FileMode, uid, gid int) error {
	parent, name, node, err := tx.fs.resolve(Root, path, resolveOpts{})
	if err != nil {
		return pathErr("mkdir", path, err)
	}
	if node != nil {
		return pathErr("mkdir", path, ErrExist)
	}
	name = internName(name)
	d := tx.fs.newInode(KindDir, mode, uid, gid)
	d.dir.parent = parent
	d.dir.name = name
	parent.cowInsert(name, d)
	parent.nlink.Add(1)
	tx.fs.touchMS(parent, tx.fs.now())
	tx.queue(Event{Op: OpCreate, Path: pathTo(parent, name), IsDir: true})
	return nil
}

// MkdirAll creates path and any missing parents.
func (tx *Tx) MkdirAll(path string, mode FileMode, uid, gid int) error {
	parts := splitPath(path)
	cur := "/"
	for _, p := range parts {
		cur = Join(cur, p)
		if tx.Exists(cur) {
			continue
		}
		if err := tx.Mkdir(cur, mode, uid, gid); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile creates or replaces a regular file's content.
func (tx *Tx) WriteFile(path string, data []byte, mode FileMode, uid, gid int) error {
	parent, name, node, err := tx.fs.resolve(Root, path, resolveOpts{followLast: true})
	if err != nil {
		return pathErr("write", path, err)
	}
	now := tx.fs.now()
	if node == nil {
		f := tx.fs.newInode(KindFile, mode, uid, gid)
		f.setData(data)
		name = internName(name)
		parent.cowInsert(name, f)
		tx.fs.touchMS(parent, now)
		full := pathTo(parent, name)
		tx.queue(Event{Op: OpCreate, Path: full})
		tx.queue(Event{Op: OpWrite, Path: full})
		return nil
	}
	if node.isDir() {
		return pathErr("write", path, ErrIsDir)
	}
	s := tx.fs.lockNode(node)
	node.setData(data)
	node.txMark = uint16(tx.fs.txLive.Load())
	node.touchM(now)
	s.mu.Unlock()
	tx.queue(Event{Op: OpWrite, Path: pathTo(parent, name)})
	return nil
}

// ReadFile returns a copy of a file's content. Synthetic files are
// returned as their stored bytes: a Synthetic.Read provider may itself
// perform file I/O and must never run under the tree lock (see the
// lock-ordering rules in lock.go), so transactional reads see the raw
// storage and the open path is the only one that materializes provider
// content.
func (tx *Tx) ReadFile(path string) ([]byte, error) {
	n, err := tx.node(path)
	if err != nil {
		return nil, pathErr("read", path, err)
	}
	if n.isDir() {
		return nil, pathErr("read", path, ErrIsDir)
	}
	// The stripe is required in BOTH transaction modes: File.Write runs
	// stripe-only (no tree lock), so even the tree write lock does not
	// exclude concurrent content writers.
	s := tx.fs.rlockNode(n)
	defer s.mu.RUnlock()
	return append([]byte(nil), n.data...), nil
}

// Symlink creates a symbolic link without semantic validation.
func (tx *Tx) Symlink(target, linkPath string, uid, gid int) error {
	parent, name, node, err := tx.fs.resolve(Root, linkPath, resolveOpts{})
	if err != nil {
		return pathErr("symlink", linkPath, err)
	}
	if node != nil {
		return pathErr("symlink", linkPath, ErrExist)
	}
	l := tx.fs.newInode(KindSymlink, 0o777, uid, gid)
	l.extend().target = target
	parent.cowInsert(name, l)
	tx.fs.touchMS(parent, tx.fs.now())
	tx.queue(Event{Op: OpCreate, Path: pathTo(parent, name)})
	return nil
}

// Link creates newPath as an additional name (hard link) for the regular
// file at oldPath, following symlinks on the source. The two names share
// one inode: the data exists once no matter how many directories link it,
// and Stat.Nlink counts the names. Directories cannot be hard-linked
// (ErrPerm, as in link(2)). This is the zero-copy primitive the event
// fan-out builds on: a payload block is written once and linked into
// each subscriber buffer.
func (tx *Tx) Link(oldPath, newPath string) error {
	_, _, src, err := tx.fs.resolve(Root, oldPath, resolveOpts{followLast: true})
	if err != nil {
		return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: err}
	}
	if src == nil {
		return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: ErrNotExist}
	}
	if src.isDir() {
		return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: ErrPerm}
	}
	parent, name, node, err := tx.fs.resolve(Root, newPath, resolveOpts{})
	if err != nil {
		return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: err}
	}
	if node != nil {
		return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: ErrExist}
	}
	now := tx.fs.now()
	parent.cowInsert(name, src)
	src.nlink.Add(1)
	tx.fs.touchCS(src, now)
	tx.fs.touchMS(parent, now)
	tx.queue(Event{Op: OpCreate, Path: pathTo(parent, name)})
	return nil
}

// LinkDir creates dstDir as a new directory and hard-links every
// regular-file child of srcDir into it, resolving both paths once. It is
// the batched form of Link for fanning a staged message directory out to
// N subscribers: one directory inode per subscriber sharing the source's
// children trie, zero payload copies. Symlink and directory children are
// skipped. A single Create event is queued for dstDir — watchers of its
// parent see the message appear atomically; the linked children share
// inodes with srcDir's files and announce nothing of their own.
func (tx *Tx) LinkDir(srcDir, dstDir string, mode FileMode, uid, gid int) error {
	_, _, src, err := tx.fs.resolve(Root, srcDir, resolveOpts{followLast: true})
	if err != nil {
		return &LinkError{Op: "linkdir", Old: srcDir, New: dstDir, Err: err}
	}
	if src == nil {
		return &LinkError{Op: "linkdir", Old: srcDir, New: dstDir, Err: ErrNotExist}
	}
	if !src.isDir() {
		return &LinkError{Op: "linkdir", Old: srcDir, New: dstDir, Err: ErrNotDir}
	}
	parent, name, node, err := tx.fs.resolve(Root, dstDir, resolveOpts{})
	if err != nil {
		return &LinkError{Op: "linkdir", Old: srcDir, New: dstDir, Err: err}
	}
	if node != nil {
		return &LinkError{Op: "linkdir", Old: srcDir, New: dstDir, Err: ErrExist}
	}
	d := tx.fs.newInode(KindDir, mode, uid, gid)
	d.dir.parent = parent
	d.dir.name = name
	tmpl := fileKids(src)
	now := tx.fs.now()
	tx.fs.addLinks(tmpl, 1, now)
	d.setKids(tmpl)
	parent.cowInsert(name, d)
	parent.nlink.Add(1)
	tx.fs.touchMS(parent, now)
	tx.queue(Event{Op: OpCreate, Path: pathTo(parent, name), IsDir: true})
	return nil
}

// LinkDirFanout is LinkDir amortized over many destinations: srcDir is
// resolved once, its linkable children are collected once, and every
// destination directory shares one children trie instead of taking
// per-entry inserts. linked(i) is called (under the tree lock — it must
// not call back into the fs) for each dsts[i] that was created; a
// destination whose parent is gone or whose name is taken is skipped, so
// one stale subscriber buffer cannot abort delivery to the rest. Child
// nlink/ctime updates are batched: one increment pass no matter how many
// destinations were linked.
//
//yancvet:hotalloc
func (tx *Tx) LinkDirFanout(srcDir string, dsts []string, mode FileMode, uid, gid int, linked func(i int)) error {
	tmpl, err := tx.fanoutSrc(srcDir)
	if err != nil {
		return err
	}
	now := tx.fs.now()
	links := 0
	root := tx.fs.root
	for i, dst := range dsts {
		hops := 0
		parent, name, node, err := tx.fs.walkFrom(root, dst, Root, resolveOpts{}, root, &hops)
		if err != nil || node != nil {
			continue
		}
		d := tx.fs.bareInode(KindDir, mode, uid, gid, now)
		d.dir.parent = parent
		d.dir.name = name
		d.setKids(tmpl)
		parent.cowInsert(name, d)
		parent.nlink.Add(1)
		tx.fs.touchMS(parent, now)
		// Event paths must be real paths: reuse the caller's dst string
		// only when resolution crossed no symlink and dst is canonical.
		evPath := dst
		if hops != 0 || !isClean(dst) {
			evPath = pathTo(parent, name)
		}
		tx.queue(Event{Op: OpCreate, Path: evPath, IsDir: true})
		links++
		if linked != nil {
			linked(i)
		}
	}
	tx.fs.addLinks(tmpl, links, now)
	return nil
}

// fanoutSrc resolves a fan-out source directory and returns the child
// trie every destination will share (see fileKids).
func (tx *Tx) fanoutSrc(srcDir string) (*dirNode, error) {
	_, _, src, err := tx.fs.resolve(Root, srcDir, resolveOpts{followLast: true})
	if err != nil {
		return nil, &LinkError{Op: "linkdir", Old: srcDir, New: "", Err: err} //yancvet:alloc error path
	}
	if src == nil {
		return nil, &LinkError{Op: "linkdir", Old: srcDir, New: "", Err: ErrNotExist} //yancvet:alloc error path
	}
	if !src.isDir() {
		return nil, &LinkError{Op: "linkdir", Old: srcDir, New: "", Err: ErrNotDir} //yancvet:alloc error path
	}
	return fileKids(src), nil
}

// fileKids returns the regular-file children of src as a trie that any
// number of directories may publish as their own. When every child is a
// regular file — always true for packet-in spool entries — that is
// src's published trie itself: tries are immutable after publish, so
// sharing one root across N directories is always safe, and a later
// insert into or unlink from any one of them path-copies a fresh root
// for that directory alone, giving ordinary hard-link semantics with
// zero aliasing quirks. A mixed-kind source is filtered into a new trie
// once, shared the same way.
func fileKids(src *inode) *dirNode {
	all := src.kids()
	for it := all.iter(); ; {
		e, ok := it.next()
		if !ok {
			return all
		}
		if e.c.kind != KindFile {
			break
		}
	}
	//yancvet:alloc mixed-kind source: one filtered trie per fan-out, shared by every destination
	files := slices.DeleteFunc(all.appendEnts(make([]dirEnt, 0, all.count())), func(e dirEnt) bool { return e.c.kind != KindFile })
	return newDir(files)
}

// addLinks accounts links new names for every file in tmpl: one nlink
// bump and one ctime stamp per file, however many directories linked it.
func (fs *FS) addLinks(tmpl *dirNode, links int, now time.Time) {
	if links == 0 {
		return
	}
	for it := tmpl.iter(); ; {
		e, ok := it.next()
		if !ok {
			return
		}
		e.c.nlink.Add(int64(links))
		fs.touchCS(e.c, now)
	}
}

// LinkDirFanoutRefs is LinkDirFanout over pre-resolved destinations: each
// parents[i] receives a child directory named name linking the source's
// files. A ref whose directory has been detached (subscriber unsubscribed
// since the caller's cache was built) or already holds name is skipped.
// Every directory of a removed subtree carries the removed mark, so
// detachment is one load instead of a path walk.
//
//yancvet:hotalloc
func (tx *Tx) LinkDirFanoutRefs(srcDir string, parents []DirRef, name string, mode FileMode, uid, gid int, linked func(i int)) error {
	tmpl, err := tx.fanoutSrc(srcDir)
	if err != nil {
		return err
	}
	if !isCleanName(name) {
		return pathErr("linkdir", name, ErrInvalid)
	}
	now := tx.fs.now()
	links := 0
	for i, r := range parents {
		parent := r.ino
		if parent == nil || parent.dead() {
			continue
		}
		if _, exists := parent.lookupChild(name); exists {
			continue
		}
		d := tx.fs.bareInode(KindDir, mode, uid, gid, now)
		d.dir.parent = parent
		d.dir.name = name
		d.setKids(tmpl)
		parent.cowInsert(name, d)
		parent.nlink.Add(1)
		tx.fs.touchMS(parent, now)
		tx.queue(Event{Op: OpCreate, Path: pathTo(parent, name), IsDir: true})
		links++
		if linked != nil {
			linked(i)
		}
	}
	tx.fs.addLinks(tmpl, links, now)
	return nil
}

// FileData names one entry of a WriteTree subtree. With only Name and
// Data set it is a regular file. Synth makes it a synthetic file (Data
// is ignored). A non-nil Children makes it a subdirectory populated
// recursively (Data and Synth are ignored; an empty non-nil slice is an
// empty directory). Mode, when non-zero, overrides the tree-wide
// default file or directory mode for this entry. Owned marks Data as
// transferred to the file system: WriteTree may alias the slice instead
// of copying, so the caller must not touch it afterwards.
type FileData struct {
	Name     string
	Data     []byte
	Synth    *Synthetic
	Children []FileData
	Mode     FileMode
	Owned    bool
}

// countTree returns the number of inodes a FileData forest needs, and
// how many of them are directories.
func countTree(files []FileData) (nodes, dirs int) {
	nodes = len(files)
	for i := range files {
		if files[i].Children != nil {
			n, d := countTree(files[i].Children)
			nodes += n
			dirs += d + 1
		}
	}
	return nodes, dirs
}

// WriteTree creates dir as a new directory populated with the given
// subtree — regular files, synthetic files, nested directories — in one
// pass: one path resolution, one slab allocation for every inode, and
// one bulk-built children trie per directory, where the call-per-file
// path pays a full root walk, a heap allocation and a path copy each.
// Per-entry Create/Write events are queued only when some watch could
// actually observe them — the packet-in spool stages messages in a
// dot-directory nobody watches, and event-path construction would
// otherwise dominate staging cost.
func (tx *Tx) WriteTree(dir string, files []FileData, dirMode, fileMode FileMode, uid, gid int) error {
	parent, name, node, err := tx.fs.resolve(Root, dir, resolveOpts{})
	if err != nil {
		return pathErr("writetree", dir, err)
	}
	if node != nil {
		return pathErr("writetree", dir, ErrExist)
	}
	now := tx.fs.now()
	ns := now.UnixNano()
	name = internName(name)
	// All inodes for the subtree come from one slab (and the directory
	// states from a second): a 1k-flow ring drain would otherwise malloc
	// ~15 inodes per flow, and the GC cost of those little objects
	// dominates the commit.
	nodes, dirs := countTree(files)
	slab := make([]inode, 0, 1+nodes)
	dirSlab := make([]dirState, 0, 1+dirs)
	alloc := func(kind NodeKind, mode FileMode) *inode {
		slab = slab[:len(slab)+1]
		var dir *dirState
		if kind == KindDir {
			dirSlab = dirSlab[:len(dirSlab)+1]
			dir = &dirSlab[len(dirSlab)-1]
		}
		return tx.fs.initInode(&slab[len(slab)-1], dir, kind, mode, uid, gid, ns)
	}
	var build func(d *inode, files []FileData) error
	build = func(d *inode, files []FileData) error {
		ents := make([]dirEnt, 0, len(files))
		for i := range files {
			f := &files[i]
			if !isCleanName(f.Name) {
				return pathErr("writetree", Join(dir, f.Name), ErrInvalid)
			}
			entryName := internName(f.Name)
			switch {
			case f.Children != nil:
				mode := dirMode
				if f.Mode != 0 {
					mode = f.Mode
				}
				sub := alloc(KindDir, mode)
				sub.dir.parent = d
				sub.dir.name = entryName
				if err := build(sub, f.Children); err != nil {
					return err
				}
				d.nlink.Add(1)
				ents = append(ents, dirEnt{entryName, sub})
			default:
				mode := fileMode
				if f.Mode != 0 {
					mode = f.Mode
				}
				fi := alloc(KindFile, mode)
				switch {
				case f.Synth != nil:
					fi.extend().synth.Store(f.Synth)
				case f.Owned:
					// Owned slices are adopted without the intern probe:
					// callers pack a whole subtree's values into one arena,
					// so the arena stays pinned by its unique entries no
					// matter how many common values the pool could share —
					// the two map lookups per file would buy nothing.
					fi.data = f.Data
				default:
					if shared, ok := internBytes(f.Data); ok {
						fi.data, fi.dataShared = shared, true
					} else {
						fi.data = append([]byte(nil), f.Data...)
					}
				}
				ents = append(ents, dirEnt{entryName, fi})
			}
		}
		d.setKids(newDir(ents))
		return nil
	}
	d := alloc(KindDir, dirMode)
	d.dir.parent = parent
	d.dir.name = name
	if err := build(d, files); err != nil {
		return err
	}
	parent.cowInsert(name, d)
	parent.nlink.Add(1)
	tx.fs.touchMS(parent, now)
	full := Clean(dir) // identical to pathTo(parent, name), minus the walk
	tx.queue(Event{Op: OpCreate, Path: full, IsDir: true})
	if tx.fs.watches.interestedInChildren(full) {
		var announce func(prefix string, files []FileData)
		announce = func(prefix string, files []FileData) {
			for i := range files {
				f := &files[i]
				p := prefix + "/" + f.Name
				if f.Children != nil {
					tx.queue(Event{Op: OpCreate, Path: p, IsDir: true})
					announce(p, f.Children)
					continue
				}
				tx.queue(Event{Op: OpCreate, Path: p})
				if f.Synth == nil {
					tx.queue(Event{Op: OpWrite, Path: p})
				}
			}
		}
		announce(full, files)
	}
	return nil
}

// TreeFile is one regular file ReadTree read: the entry's own name and
// its content, cut from a string ReadTree built for that call.
type TreeFile struct {
	Name string
	Data string
}

// TreeBuf is the storage ReadTree fills. A caller that keeps one reads
// any number of directories with one allocation each: the string that
// backs the Data fields.
type TreeBuf struct {
	Files []TreeFile
	ends  []int    // end offset of each file's content in the built string
	ents  []dirEnt // sorted entries of a directory too big for one leaf
	hint  int      // content size of the last tree read, to size the next
}

// ReadTree is the mirror of WriteTree: it resolves dir once and returns
// dir's own name and, in buf.Files, the regular files directly inside it
// in ReadDir order, except that the file named first — when there is one
// — comes first. Subdirectories, symlinks and synthetic files are left
// out. Each file's bytes are copied under its stripe, so nothing returned
// aliases file storage: flow files can be rewritten in place by a
// stripe-only File.Write.
//
// first gates the read. When it is missing, empty, or holds exactly
// unless, ReadTree stops there and buf.Files comes back empty: a reader
// polling a directory whose commit file (§3.4's version) has not moved
// pays one lookup and one comparison, and allocates nothing.
//
// Unlike the other Tx methods ReadTree is counted in OpStats, and the
// counts are synthetic: it adds the calls it stands for — a read for the
// gate, then a readdir and a read per file copied — although none of them
// runs, so /.proc/vfs reports per-file operations where there was one
// call. That keeps the operation counts saying how many files a flow's
// read-back touches, which bench's traced smoke holds a floor on
// (vfs.ops_per_op); to count the real call instead is a change to make
// together with that floor. What ReadTree saves over those calls is their
// path resolutions, permission checks, lock round trips and allocations.
//
//yancvet:hotalloc
func (tx *Tx) ReadTree(dir, first string, unless []byte, buf *TreeBuf) (name string, err error) {
	buf.Files = buf.Files[:0]
	d, err := tx.node(dir)
	if err != nil {
		return "", pathErr("readtree", dir, err) //yancvet:alloc error path
	}
	if !d.isDir() {
		return "", pathErr("readtree", dir, ErrNotDir) //yancvet:alloc error path
	}
	root := d.kids()
	gate, ok := root.get(first)
	if !ok || gate.kind != KindFile || gate.loadSynth() != nil {
		return d.dir.name, nil
	}
	var sb strings.Builder
	tx.fs.stats.reads.Add(1)
	s := tx.fs.rlockNode(gate)
	if len(gate.data) == 0 || bytes.Equal(gate.data, unless) {
		s.mu.RUnlock()
		return d.dir.name, nil
	}
	//yancvet:alloc the one string of a tree that passed its gate; the files' own bytes must not be aliased outside their stripes
	sb.Grow(max(buf.hint, len(gate.data)))
	sb.Write(gate.data)
	s.mu.RUnlock()
	buf.Files = append(buf.Files, TreeFile{Name: first})
	buf.ends = append(buf.ends[:0], sb.Len())

	ents := root.ents
	if root.bitmap != 0 {
		buf.ents = root.appendEnts(buf.ents[:0])
		sortEnts(buf.ents)
		ents = buf.ents
	}
	for _, e := range ents {
		if e.name == first || e.c.kind != KindFile || e.c.loadSynth() != nil {
			continue
		}
		s := tx.fs.rlockNode(e.c)
		sb.Write(e.c.data)
		s.mu.RUnlock()
		buf.Files = append(buf.Files, TreeFile{Name: e.name})
		buf.ends = append(buf.ends, sb.Len())
	}
	clear(buf.ents) // the entries point at inodes; do not keep them alive
	buf.ents = buf.ents[:0]

	tx.fs.stats.readdirs.Add(1)
	tx.fs.stats.reads.Add(uint64(len(buf.Files) - 1))
	all := sb.String()
	buf.hint = len(all)
	start := 0
	for i, end := range buf.ends {
		buf.Files[i].Data = all[start:end]
		start = end
	}
	return d.dir.name, nil
}

// Remove unlinks a file/symlink or removes a directory subtree.
func (tx *Tx) Remove(path string) error {
	parent, name, node, err := tx.fs.resolve(Root, path, resolveOpts{})
	if err != nil {
		return pathErr("remove", path, err)
	}
	if node == nil {
		return pathErr("remove", path, ErrNotExist)
	}
	tx.fs.unlinkLocked(parent, name, node, tx)
	return nil
}

// renameLocked is the shared rename core behind Proc.Rename and
// Tx.Rename: it moves node from (oldParent, oldName) onto (newParent,
// newName), replacing target if present. The tree write lock must be
// held; the caller has already done permission and protection checks.
// It performs the structural compatibility checks (replace rules, cycle
// check) because those depend only on tree shape, not credentials.
func (fs *FS) renameLocked(tx *Tx, oldParent *inode, oldName string, node *inode, newParent *inode, newName string, target *inode) error {
	if target != nil {
		if target.isDir() {
			if !node.isDir() {
				return ErrIsDir
			}
			if target.childCount() > 0 {
				return ErrNotEmpty
			}
		} else if node.isDir() {
			return ErrNotDir
		}
	}
	// A directory may not be moved into its own subtree.
	if node.isDir() {
		for d := newParent; d != nil; d = d.dir.parent {
			if d == node {
				return ErrInvalid
			}
		}
	}
	oldFull := pathTo(oldParent, oldName)
	if target != nil {
		fs.unlinkLocked(newParent, newName, target, tx)
	}
	newName = internName(newName)
	oldParent.cowDelete(oldName)
	newParent.cowInsert(newName, node)
	if node.isDir() {
		oldParent.nlink.Add(-1)
		newParent.nlink.Add(1)
		node.dir.parent = newParent
		node.dir.name = newName
	}
	// Invalidate in-flight lock-free walkers that resolved node through
	// the old parent's snapshot: their next validated hop below it must
	// retry and re-observe the new location. This is what makes a
	// lock-free walk unable to combine a stale parent entry with state
	// the moved directory only reached after the move.
	node.bumpGen()
	now := fs.now()
	fs.touchMS(oldParent, now)
	fs.touchMS(newParent, now)
	fs.touchCS(node, now)
	newFull := pathTo(newParent, newName)
	tx.queue(Event{Op: OpRename, Path: oldFull, NewPath: newFull, IsDir: node.isDir()})
	tx.queue(Event{Op: OpCreate, Path: newFull, IsDir: node.isDir()})
	return nil
}

// Rename moves oldPath to newPath with root credentials, atomically with
// the rest of the transaction — the primitive that lets a hook or batch
// caller restructure the tree and adjust its contents in one critical
// section. Replace rules match rename(2) (and Proc.Rename).
func (tx *Tx) Rename(oldPath, newPath string) error {
	lerr := func(err error) error {
		return &LinkError{Op: "rename", Old: oldPath, New: newPath, Err: err}
	}
	oldParent, oldName, node, err := tx.fs.resolve(Root, oldPath, resolveOpts{})
	if err != nil {
		return lerr(err)
	}
	if node == nil {
		return lerr(ErrNotExist)
	}
	if oldParent == nil {
		return lerr(ErrBusy)
	}
	newParent, newName, target, err := tx.fs.resolve(Root, newPath, resolveOpts{})
	if err != nil {
		return lerr(err)
	}
	if target == node {
		return nil
	}
	if err := tx.fs.renameLocked(tx, oldParent, oldName, node, newParent, newName, target); err != nil {
		return lerr(err)
	}
	return nil
}

// RemoveChildren removes the named children of dir, resolving dir once —
// the batched form of Remove for evicting many entries from one
// directory (the event buffers' drop-oldest path). Missing names are
// skipped; the number actually removed is returned.
func (tx *Tx) RemoveChildren(dir string, names []string) (int, error) {
	_, _, d, err := tx.fs.resolve(Root, dir, resolveOpts{followLast: true})
	if err != nil {
		return 0, pathErr("remove", dir, err)
	}
	if d == nil {
		return 0, pathErr("remove", dir, ErrNotExist)
	}
	if !d.isDir() {
		return 0, pathErr("remove", dir, ErrNotDir)
	}
	now := tx.fs.now()
	// One watch-list scan decides descendant-event interest for the whole
	// batch: every removed child shares this parent, so if no watch can see
	// inside any child, none of the subtree removals need per-entry events.
	// Watch paths are real paths, so compare against the resolved dir, not
	// the possibly symlinked argument.
	interest := interestUnknown
	if !tx.fs.watches.interestedInGrandchildren(pathOf(d)) {
		interest = interestNone
	}
	removed := 0
	for _, name := range names {
		c, ok := d.lookupChild(name)
		if !ok {
			continue
		}
		tx.fs.removeNode(d, name, c, tx, now, true, true, interest)
		removed++
	}
	return removed, nil
}

// DirNames appends dir's child names to buf in unspecified order: ReadDir
// without the sort and entry materialization, for callers that only need
// membership.
func (tx *Tx) DirNames(path string, buf []string) ([]string, error) {
	_, _, n, err := tx.fs.resolve(Root, path, resolveOpts{followLast: true})
	if err != nil {
		return buf, pathErr("readdir", path, err)
	}
	if n == nil {
		return buf, pathErr("readdir", path, ErrNotExist)
	}
	if !n.isDir() {
		return buf, pathErr("readdir", path, ErrNotDir)
	}
	for it := n.kids().iter(); ; {
		e, ok := it.next()
		if !ok {
			return buf, nil
		}
		buf = append(buf, e.name)
	}
}

// SetSemantics attaches (or clears) directory semantics.
func (tx *Tx) SetSemantics(path string, sem *DirSemantics) error {
	n, err := tx.node(path)
	if err != nil {
		return pathErr("semantics", path, err)
	}
	if !n.isDir() {
		return pathErr("semantics", path, ErrNotDir)
	}
	n.dir.sem = sem
	return nil
}

// SetSynthetic makes (or creates) a synthetic file at path.
func (tx *Tx) SetSynthetic(path string, synth *Synthetic, mode FileMode, uid, gid int) error {
	parent, name, node, err := tx.fs.resolve(Root, path, resolveOpts{followLast: true})
	if err != nil {
		return pathErr("synthetic", path, err)
	}
	if node == nil {
		f := tx.fs.newInode(KindFile, mode, uid, gid)
		f.extend().synth.Store(synth)
		parent.cowInsert(name, f)
		tx.fs.touchMS(parent, tx.fs.now())
		tx.queue(Event{Op: OpCreate, Path: pathTo(parent, name)})
		return nil
	}
	if node.isDir() {
		return pathErr("synthetic", path, ErrIsDir)
	}
	node.extend().synth.Store(synth)
	return nil
}

// SetXattr sets an extended attribute.
func (tx *Tx) SetXattr(path, attr string, value []byte) error {
	n, err := tx.node(path)
	if err != nil {
		return pathErr("setxattr", path, err)
	}
	s := tx.fs.lockNode(n)
	defer s.mu.Unlock()
	setXattr(n, attr, value)
	n.touchC(tx.fs.now())
	return nil
}

// GetXattr reads an extended attribute.
func (tx *Tx) GetXattr(path, attr string) ([]byte, error) {
	n, err := tx.node(path)
	if err != nil {
		return nil, pathErr("getxattr", path, err)
	}
	s := tx.fs.rlockNode(n)
	defer s.mu.RUnlock()
	v, ok := n.xattrs()[attr]
	if !ok {
		return nil, pathErr("getxattr", path, ErrNoAttr)
	}
	return append([]byte(nil), v...), nil
}

// Chmod changes permission bits.
func (tx *Tx) Chmod(path string, mode FileMode) error {
	n, err := tx.node(path)
	if err != nil {
		return pathErr("chmod", path, err)
	}
	n.storeMode(mode)
	tx.fs.touchCS(n, tx.fs.now())
	tx.queue(Event{Op: OpChmod, Path: Clean(path), IsDir: n.isDir()})
	return nil
}

// Chown changes ownership.
func (tx *Tx) Chown(path string, uid, gid int) error {
	n, err := tx.node(path)
	if err != nil {
		return pathErr("chown", path, err)
	}
	n.storeOwner(uid, gid)
	tx.fs.touchCS(n, tx.fs.now())
	tx.queue(Event{Op: OpChmod, Path: Clean(path), IsDir: n.isDir()})
	return nil
}

// ReadDir lists a directory in name order.
func (tx *Tx) ReadDir(path string) ([]DirEntry, error) {
	n, err := tx.node(path)
	if err != nil {
		return nil, pathErr("readdir", path, err)
	}
	if !n.isDir() {
		return nil, pathErr("readdir", path, ErrNotDir)
	}
	return listDir(n), nil
}

// Stat describes the node at path (following symlinks).
func (tx *Tx) Stat(path string) (Stat, error) {
	n, err := tx.node(path)
	if err != nil {
		return Stat{}, pathErr("stat", path, err)
	}
	s := tx.fs.rlockNode(n)
	defer s.mu.RUnlock()
	return statOf(n, Base(path)), nil
}

// listDir materializes a directory listing, sorted by name, from the
// published children trie. Lock-free: the trie is immutable. The slice
// belongs to the caller. A single-leaf directory (anything up to
// dirLeafMax entries) is already in name order and is listed afresh each
// time. A larger one needs a walk and an O(n log n) sort — tens of
// milliseconds at 10⁵ entries — so its root keeps the sorted listing and
// every call copies it out: polling an unchanged big directory costs a
// memcpy, and the memo dies with the root at the next insert or delete.
func listDir(n *inode) []DirEntry {
	root := n.kids()
	if root == nil {
		return nil
	}
	if l := root.listing.Load(); l != nil {
		return slices.Clone(*l) //yancvet:alloc the caller's listing
	}
	out := make([]DirEntry, 0, root.count()) //yancvet:alloc the caller's listing
	for it := root.iter(); ; {
		e, ok := it.next()
		if !ok {
			break
		}
		out = append(out, DirEntry{Name: e.name, Kind: e.c.kind, Ino: e.c.ino})
	}
	if root.bitmap == 0 {
		return out
	}
	//yancvet:alloc a directory past one leaf: sorted once per change, memoized on the root
	slices.SortFunc(out, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	root.listing.Store(&out)
	return slices.Clone(out) //yancvet:alloc the caller's listing
}

// statOf snapshots an inode. The caller must hold the inode's stripe
// (read mode is enough) — inode-local times/version/data are read here.
// Everything else it touches is atomic, immutable, or a published
// snapshot, so no tree lock is needed in any mode.
func statOf(n *inode, name string) Stat {
	size := int64(len(n.data))
	if n.isDir() {
		size = int64(n.childCount())
	}
	return Stat{
		Ino:     n.ino,
		Kind:    n.kind,
		Mode:    n.loadMode(),
		UID:     n.loadUID(),
		GID:     n.loadGID(),
		Nlink:   int(n.nlink.Load()),
		Size:    size,
		Atime:   time.Unix(0, n.atime),
		Mtime:   time.Unix(0, n.mtime),
		Ctime:   time.Unix(0, n.ctime),
		Name:    name,
		Target:  n.target(),
		Version: n.version,
	}
}

// unlinkLocked removes node (recursively for directories) from parent and
// queues Remove events. The tree write lock must be held.
func (fs *FS) unlinkLocked(parent *inode, name string, node *inode, tx *Tx) {
	fs.removeNode(parent, name, node, tx, fs.now(), true, true, interestUnknown)
}

// removeNode implements unlinkLocked. queueEvents gates watch-event
// queueing: when a directory is torn down and no watch is rooted inside
// it (nor recursively covers it), events for its descendants can match
// nothing, so queueing — and the path construction it requires — is
// skipped for the whole subtree. The top-level removal always announces
// itself; semantic OnRemove hooks always fire regardless (they are tree
// bookkeeping, not watch delivery). detach is false for the children of a
// directory that is itself being destroyed: unhooking them from its dying
// map (and touching its mtime) would be wasted work.
// Descendant-event interest hints for removeNode. interestUnknown makes
// removeNode consult the watch set itself; interestNone asserts the caller
// already proved no watch can observe events inside this node.
const (
	interestUnknown int8 = iota
	interestNone
)

func (fs *FS) removeNode(parent *inode, name string, node *inode, tx *Tx, now time.Time, queueEvents, detach bool, interest int8) {
	var full string
	if queueEvents {
		full = pathTo(parent, name)
	}
	if node.isDir() {
		kids := node.kids()
		childEvents := queueEvents
		if childEvents && kids != nil {
			if interest == interestNone {
				childEvents = false
			} else {
				childEvents = fs.watches.interestedInChildren(full)
			}
		}
		// Dying subtrees keep their published children: an in-flight
		// lock-free walker below this node still resolves the (stale but
		// once-valid) structure instead of fabricating ENOENTs.
		for it := kids.iter(); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			fs.removeNode(node, e.name, e.c, tx, now, childEvents, false, interestUnknown)
		}
		parent.nlink.Add(-1)
	}
	if detach {
		parent.cowDelete(name)
		fs.touchMS(parent, now)
		// Invalidate walkers that already resolved node through the old
		// parent snapshot but have not validated the hop yet.
		node.bumpGen()
	}
	node.nlink.Add(-1)
	if node.dir != nil {
		node.dir.parent = nil
		node.markDead()
	}
	if queueEvents {
		tx.queue(Event{Op: OpRemove, Path: full, IsDir: node.isDir()})
	}
	if parent.dir.sem != nil && parent.dir.sem.OnRemove != nil {
		dirPath := ""
		if full != "" {
			dirPath = full[:len(full)-len(name)-1]
			if dirPath == "" {
				dirPath = "/"
			}
		} else {
			dirPath = pathOf(parent)
		}
		parent.dir.sem.OnRemove(tx, dirPath, name, node.kind)
	}
}

// errIsAny reports whether err wraps any of the targets.
func errIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
