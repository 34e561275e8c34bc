package vfs

import (
	"sync"
	"sync/atomic"
)

// The VFS concurrency model (DESIGN.md §8) has three levels:
//
//   - Atomic snapshots (no lock at all): each directory inode publishes
//     its children as an immutable snapshot (the root of a persistent
//     trie, dirtrie.go) behind an atomic pointer, paired with a
//     generation counter (resolve_rcu.go). Read-only path
//     resolution walks these snapshots lock-free, validating each hop
//     against the generation counter and retrying (then falling back to
//     the read-locked slow path) on concurrent structural change.
//     Permission state (mode, uid, gid), nlink, and the synth attachment
//     are likewise atomic, so the per-component permission check and the
//     open fast path touch no lock.
//
//   - The tree lock (FS.tree) serializes *structural mutation*: the
//     path-copying replacement of children snapshots, parent/name
//     back-links, and DirSemantics hooks. Structural operations (mkdir,
//     create, remove, rename, link, symlink, WithTx) hold it in write
//     mode; locked readers (ReadTx, the resolve fallback path, watch-path
//     reconstruction) hold it in read mode. Snapshots are replaced only
//     via setKids/cowInsert/cowDelete under the write lock — no trie
//     node is ever mutated after publish (the snapshotpub vet rule
//     enforces this).
//
//   - Inode-state locks, sharded by inode number over LockShards stripes
//     (FS.shards), protect the *content* of one inode: data, mtime/ctime/
//     atime, version, and xattrs. Because lock-free readers reach inodes
//     without touching the tree lock, the tree lock — even in write mode —
//     no longer excludes readers of inode-local state: every access to a
//     published inode's content fields must take its stripe. Only inodes
//     not yet published (no snapshot anywhere references them) may be
//     initialized stripe-free; the atomic snapshot swap that publishes
//     them provides the happens-before edge. Content readers that hold
//     no tree lock take the stripe through rlockContent, which keeps a
//     WithTx's writes from them until the transaction has committed.
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
// Lock-ordering discipline (violations deadlock; the stress battery's
// canary tests enforce it):
//
//  1. tree lock before shard lock, never the reverse: a goroutine holding
//     a shard must not acquire the tree lock in any mode.
//  2. at most one shard lock at a time; if a future operation ever needs
//     two, it must take them in ascending shard-index order.
//  3. DirSemantics hooks and Synthetic providers invoked under the tree
//     write lock must only touch the tree through the Tx they are handed.
//     Calling a Proc-level entry point re-acquires the tree lock and
//     self-deadlocks (sync.RWMutex is not reentrant).
//  4. Synthetic.Read/Write providers run *outside* all tree locks (from
//     the open/close path) and may perform arbitrary Proc I/O.
//  5. children snapshots are immutable after publish, every node of
//     them (bar the root's atomic listing memo, see listDir); replace
//     them only via setKids (or the cow helpers) under the tree write
//     lock.
//  6. interned payload slices (intern.go) are shared across inodes and
//     immutable: a writer that finds dataShared set must replace the
//     slice (copy-on-write under the stripe), never write into it.

// LockShards is the number of inode-state lock stripes. A power of two so
// the shard index is a mask of the inode number.
const LockShards = 64

// shardLock is one inode-state stripe. The padding keeps hot stripes on
// separate cache lines.
type shardLock struct {
	mu  sync.RWMutex
	acq atomic.Uint64 // total acquisitions (read + write), for .proc
	_   [64]byte
}

// lockCounters accumulates acquisition and contention telemetry for the
// .proc/vfs/{lock_shards,contention} files. A "contended" acquisition is
// one whose initial TryLock failed and had to block.
type lockCounters struct {
	treeRead           atomic.Uint64
	treeWrite          atomic.Uint64
	treeReadContended  atomic.Uint64
	treeWriteContended atomic.Uint64
	shardRead          atomic.Uint64
	shardWrite         atomic.Uint64
	shardContended     atomic.Uint64
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

// shardOf returns the inode-state stripe for n.
func (fs *FS) shardOf(n *inode) *shardLock { return &fs.shards[n.ino&(LockShards-1)] }

// lockNode write-locks n's inode-state stripe. The caller must not
// already hold any stripe; the tree lock is not a prerequisite (open file
// handles and lock-free lookups reach stripes with no tree lock held).
func (fs *FS) lockNode(n *inode) *shardLock {
	s := fs.shardOf(n)
	if !s.mu.TryLock() {
		fs.lockCtr.shardContended.Add(1)
		s.mu.Lock()
	}
	fs.lockCtr.shardWrite.Add(1)
	s.acq.Add(1)
	return s
}

// rlockNode read-locks n's inode-state stripe under the same rules.
func (fs *FS) rlockNode(n *inode) *shardLock {
	s := fs.shardOf(n)
	if !s.mu.TryRLock() {
		fs.lockCtr.shardContended.Add(1)
		s.mu.RLock()
	}
	fs.lockCtr.shardRead.Add(1)
	s.acq.Add(1)
	return s
}

// rlockContent read-locks n's stripe for a content read made outside the
// tree lock, once n holds nothing a transaction still in flight created
// or wrote. Lock-free resolution lets such a reader reach n in the middle
// of a WithTx; returning the transaction's bytes before it commits would
// break the version-file seqlock (DESIGN.md §8): a reader could see new
// fields between two reads of the old version. So the reader steps behind
// the tree lock until the writer has committed and looks again. The
// caller must hold no lock. Only content is ordered this way: names a
// transaction adds or removes show up to lock-free walks one by one
// (resolve_rcu.go).
func (fs *FS) rlockContent(n *inode) *shardLock {
	for {
		s := fs.rlockNode(n)
		if n.txMark == 0 || uint32(n.txMark) != fs.txLive.Load() {
			return s
		}
		s.mu.RUnlock()
		fs.rlockTree()
		fs.runlockTree()
	}
}

// LockStats is a point-in-time snapshot of lock telemetry, the data
// behind /.proc/vfs/lock_shards and /.proc/vfs/contention.
type LockStats struct {
	Shards             int
	TreeRead           uint64 // tree read-mode acquisitions
	TreeWrite          uint64 // tree write-mode acquisitions
	TreeReadContended  uint64
	TreeWriteContended uint64
	ShardRead          uint64 // stripe read-mode acquisitions
	ShardWrite         uint64 // stripe write-mode acquisitions
	ShardContended     uint64
	ResolveLockfree    uint64             // read-path resolutions served entirely lock-free
	ResolveFallback    uint64             // read-path resolutions that fell back to the locked walk
	PerShard           [LockShards]uint64 // total acquisitions per stripe
}

// Contended returns the total number of blocking acquisitions.
func (s LockStats) Contended() uint64 {
	return s.TreeReadContended + s.TreeWriteContended + s.ShardContended
}

// LockStats snapshots the lock telemetry counters.
func (fs *FS) LockStats() LockStats {
	s := LockStats{
		Shards:             LockShards,
		TreeRead:           fs.lockCtr.treeRead.Load(),
		TreeWrite:          fs.lockCtr.treeWrite.Load(),
		TreeReadContended:  fs.lockCtr.treeReadContended.Load(),
		TreeWriteContended: fs.lockCtr.treeWriteContended.Load(),
		ShardRead:          fs.lockCtr.shardRead.Load(),
		ShardWrite:         fs.lockCtr.shardWrite.Load(),
		ShardContended:     fs.lockCtr.shardContended.Load(),
		ResolveLockfree:    fs.lockCtr.resolveLockfree.Load(),
		ResolveFallback:    fs.lockCtr.resolveFallback.Load(),
	}
	for i := range fs.shards {
		s.PerShard[i] = fs.shards[i].acq.Load()
	}
	return s
}
