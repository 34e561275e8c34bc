package vfs

import "sync/atomic"

// The VFS concurrency model (DESIGN.md §8) has two levels:
//
//   - Atomic publication (no lock at all). Each directory inode publishes
//     its children as an immutable snapshot (the root of a persistent
//     trie, dirtrie.go) behind an atomic pointer, paired with a
//     generation counter (resolve_rcu.go). Read-only path resolution
//     walks these snapshots lock-free, validating each hop against the
//     generation counter and retrying (then falling back to the
//     read-locked slow path) on concurrent structural change. A regular
//     file publishes its content the same way: immutable bytes behind one
//     atomic pointer, which a write replaces with new bytes and never
//     writes through. Everything else an inode carries — mode, owner,
//     nlink, times, version, the synth attachment, the xattr map — is an
//     atomic too, so the permission checks, stat, the open fast path and
//     every content read and write touch no lock.
//
//   - The tree lock (FS.tree) serializes *structural mutation*: the
//     path-copying replacement of children snapshots, parent/name
//     back-links, and DirSemantics hooks. Structural operations (mkdir,
//     create, remove, rename, link, symlink, WithTx) hold it in write
//     mode; locked readers (ReadTx, the resolve fallback path, watch-path
//     reconstruction) hold it in read mode. Snapshots are replaced only
//     via setKids/cowInsert/cowDelete under the write lock — no trie
//     node is ever mutated after publish (the snapshotpub vet rule
//     enforces this). Content writes never take it: a WithTx's content
//     writes are kept from lock-free readers by the transaction mark
//     instead (readContent).
//
// The lock-free resolve protocol (resolve_rcu.go): writers bump the
// directory generation before swapping in the new snapshot, so a reader
// that loads a new root is guaranteed to see a new generation and retry
// its hop; a reader that validated the old generation used a consistent
// pre-change snapshot. The walker retries a hop at most maxRCURetries
// times, charging each retry one symlink hop (so rename storms surface as
// ErrTooManyLinks), and bails to the read-locked walkFrom path on ".."
// and on symlinks it would have to follow.
//
// Telemetry: resolveLockfree/resolveFallback count read-path resolutions
// (Stat, ReadDir, xattrs, Readlink, the open fast path) that completed
// lock-free vs. took the locked fallback. Intentionally-locked resolves
// on write paths are not counted — the ratio measures how often the
// lock-free walk succeeds, not how often the tree lock is taken.
//
// Locking rules (violations deadlock or tear; the yancvet analyzers and
// the stress battery enforce them):
//
//  1. What is published is immutable: children snapshots, every node of
//     them, file contents (interned ones are shared across inodes,
//     intern.go) and xattr maps. Replace them by a swap — snapshots via
//     setKids (or the cow helpers) under the tree write lock — never
//     write into them.
//  2. Synthetic.Read/Write providers run *outside* all tree locks (from
//     the open/close path) and may perform arbitrary Proc I/O.
//  3. DirSemantics hooks and Synthetic providers invoked under the tree
//     write lock must only touch the tree through the Tx they are handed.
//     Calling a Proc-level entry point re-acquires the tree lock and
//     self-deadlocks (sync.RWMutex is not reentrant).

// lockCounters accumulates acquisition and contention telemetry for the
// .proc/vfs/contention file. A "contended" acquisition is one whose
// initial TryLock failed and had to block.
type lockCounters struct {
	treeRead           atomic.Uint64
	treeWrite          atomic.Uint64
	treeReadContended  atomic.Uint64
	treeWriteContended atomic.Uint64
	resolveLockfree    atomic.Uint64 // read-path resolutions served lock-free
	resolveFallback    atomic.Uint64 // read-path resolutions that took the locked slow path
}

// lockTree acquires the tree lock in write mode (structural operations).
func (fs *FS) lockTree() {
	if !fs.tree.TryLock() {
		fs.lockCtr.treeWriteContended.Add(1)
		fs.tree.Lock()
	}
	fs.lockCtr.treeWrite.Add(1)
}

func (fs *FS) unlockTree() { fs.tree.Unlock() }

// rlockTree acquires the tree lock in read mode (all non-structural
// operations).
func (fs *FS) rlockTree() {
	if !fs.tree.TryRLock() {
		fs.lockCtr.treeReadContended.Add(1)
		fs.tree.RLock()
	}
	fs.lockCtr.treeRead.Add(1)
}

func (fs *FS) runlockTree() { fs.tree.RUnlock() }

// readContent returns n's content to a reader that holds no tree lock,
// once n holds nothing a transaction still in flight created or wrote.
// Lock-free resolution lets such a reader reach n in the middle of a
// WithTx; returning the transaction's bytes before it commits would break
// the version-file seqlock (DESIGN.md §8): a reader could see new fields
// between two reads of the old version. A transaction stores its mark
// before the content, and the reader loads the content before the mark,
// so a reader holding the transaction's bytes finds its mark; it then
// steps behind the tree lock until the writer has committed and loads
// again. Only content is ordered this way: names a transaction adds or
// removes show up to lock-free walks one by one (resolve_rcu.go).
func (fs *FS) readContent(n *inode) []byte {
	for {
		data := n.content()
		if m := n.txMark.Load(); m == 0 || m != fs.txLive.Load() {
			return data
		}
		fs.rlockTree()
		fs.runlockTree()
	}
}

// LockStats is a point-in-time snapshot of lock telemetry, the data
// behind /.proc/vfs/contention.
type LockStats struct {
	TreeRead           uint64 // tree read-mode acquisitions
	TreeWrite          uint64 // tree write-mode acquisitions
	TreeReadContended  uint64
	TreeWriteContended uint64
	// ShardRead and ShardWrite counted the acquisitions of the inode
	// stripe locks, which content publication by atomic swap replaced:
	// both always read 0. They stay because yancperf's traced run still
	// adds them into the denominator of vfs.contended_share.
	ShardRead       uint64
	ShardWrite      uint64
	ResolveLockfree uint64 // read-path resolutions served entirely lock-free
	ResolveFallback uint64 // read-path resolutions that fell back to the locked walk
}

// Contended returns the total number of blocking acquisitions.
func (s LockStats) Contended() uint64 {
	return s.TreeReadContended + s.TreeWriteContended
}

// LockStats snapshots the lock telemetry counters.
func (fs *FS) LockStats() LockStats {
	return LockStats{
		TreeRead:           fs.lockCtr.treeRead.Load(),
		TreeWrite:          fs.lockCtr.treeWrite.Load(),
		TreeReadContended:  fs.lockCtr.treeReadContended.Load(),
		TreeWriteContended: fs.lockCtr.treeWriteContended.Load(),
		ResolveLockfree:    fs.lockCtr.resolveLockfree.Load(),
		ResolveFallback:    fs.lockCtr.resolveFallback.Load(),
	}
}
