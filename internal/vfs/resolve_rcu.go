package vfs

import "time"

// Lock-free (RCU-style) path resolution.
//
// Every directory inode publishes its children as an immutable snapshot
// (the root of a persistent hash trie — see dirtrie.go) behind an atomic
// pointer (dirState.children) paired with a generation counter
// (dirState.gen). Writers never mutate a published trie: they path-copy
// a replacement, bump the generation, and atomically swap the root in —
// all under the tree write lock, which serializes writers against each
// other (see setKids). Readers walk
// snapshots with no locks at all, validating each hop against the
// generation counter the way Linux's rcu-walk validates dentry seqcounts:
// if a directory's generation moved between loading its snapshot and
// using the result, the hop is retried. After a bounded number of retries
// — or on any construct the lock-free walker does not handle (symlinks,
// "..") — resolution falls back to the read-locked walkFrom slow path.
//
// What a successful lock-free walk guarantees: for every hop, the parent
// directory contained the child at some instant during the walk, and
// adjacent hops overlapped in time (the child's generation is captured
// before the parent's is revalidated). It does NOT serialize against
// WithTx transactions the way locked readers do: a lock-free walk can
// observe the individual structural mutations of an in-flight transaction
// in order, exactly as Linux rcu-walk observes individual rename/unlink
// steps. What it can never observe is a "frankenstein" path mixing a
// stale parent snapshot with a child state the tree only reached after
// the parent entry was gone — the generation protocol rejects those.
// File content is stricter: a reader that reaches a file a transaction
// in flight has written waits for the commit (rlockContent, lock.go).

// maxRCURetries bounds lock-free retry attempts before a resolution gives
// up and takes the locked slow path. Each retry also charges one hop
// against maxSymlinkHops, so a sustained rename storm surfaces as
// ErrTooManyLinks instead of an unbounded retry loop (see lookupRO).
const maxRCURetries = 4

// rcuLookupHook, when non-nil, runs between a lock-free walker loading a
// directory snapshot and validating the directory's generation. Tests
// install it to force generation conflicts deterministically; it must be
// set before any concurrent fs use and may mutate the tree through the
// normal locked entry points.
var rcuLookupHook func(dir *inode, name string)

// kids returns the root of the directory's published children trie (nil
// while the directory has no child). The trie is immutable: callers may
// look up and iterate, never write through it.
func (n *inode) kids() *dirNode { return n.dir.children.Load() }

// lookupChild finds one name in n's children.
func (n *inode) lookupChild(name string) (*inode, bool) { return n.kids().get(name) }

// childCount returns the number of children.
func (n *inode) childCount() int { return n.kids().count() }

// loadGen returns the generation a lock-free walker validates n's
// children against. Only directories have children to validate, so a
// leaf reads as generation 0.
func (n *inode) loadGen() uint64 {
	if n.dir == nil {
		return 0
	}
	return n.dir.gen.Load()
}

// setKids publishes root as n's children. The caller must hold the tree
// write lock and must never mutate root (or anything it references)
// afterwards. The generation is bumped BEFORE the root is swapped: a
// lock-free reader that observes the new trie is then guaranteed to
// observe the new generation too and retry its hop, while a reader that
// captured the old generation and still loads the old root sees a valid
// pre-change state. (The opposite order would let a reader validate new
// contents against the stale generation and assemble a path that never
// existed.)
func (n *inode) setKids(root *dirNode) {
	n.dir.gen.Add(1)
	n.dir.children.Store(root)
}

// bumpGen invalidates in-flight lock-free walkers holding n without
// changing its children: rename and detach use it so a walker that
// resolved n through a now-stale parent entry retries instead of
// continuing below a moved/removed directory. A leaf has nothing below
// it to walk, so there it is a no-op. Tree write lock required.
func (n *inode) bumpGen() {
	if n.dir != nil {
		n.dir.gen.Add(1)
	}
}

// cowInsert adds (or replaces) name→c in n's children by path-copying
// the trie. Tree write lock required.
func (n *inode) cowInsert(name string, c *inode) {
	n.setKids(n.kids().put(name, c))
}

// cowDelete removes name from n's children. Tree write lock required.
func (n *inode) cowDelete(name string) {
	old := n.kids()
	if root := old.del(name); root != old {
		n.setKids(root)
	}
}

// loadSynth returns the node's synthetic provider, lock-free.
func (n *inode) loadSynth() *Synthetic {
	if e := n.ext.Load(); e != nil {
		return e.synth.Load()
	}
	return nil
}

// touchMS stamps a content change on a published inode under its stripe.
// With lock-free readers in play, the tree write lock alone no longer
// excludes readers of inode-local state, so every mutation of a published
// inode's times/version must take the stripe — even from under the tree
// write lock. Acquire-and-release keeps the one-stripe-at-a-time rule.
func (fs *FS) touchMS(n *inode, now time.Time) {
	s := fs.lockNode(n)
	n.touchM(now)
	s.mu.Unlock()
}

// touchCS is touchMS for metadata-only changes (ctime+version).
func (fs *FS) touchCS(n *inode, now time.Time) {
	s := fs.lockNode(n)
	n.touchC(now)
	s.mu.Unlock()
}

// rcuStatus classifies the outcome of one lock-free walk attempt.
type rcuStatus uint8

const (
	rcuOK    rcuStatus = iota // walk completed; node may be nil (final component absent)
	rcuFail                   // walk completed with a definitive error
	rcuRetry                  // a generation conflict invalidated a hop
	rcuBail                   // construct the lock-free walker does not handle
)

// walkRCU is the lock-free walker: it resolves path from opt.root (or the
// fs root) touching only immutable snapshots, generation counters, and
// permission atomics. On rcuOK it returns the resolved node, or nil if
// the final component does not exist in its (validated) parent, and that
// parent: the directory the final component was looked up in (nil when
// the path names the walk's root itself). It bails
// to the locked path on ".." (needs parent back-links) and on any symlink
// it would have to follow (hop accounting and dangling-link create
// semantics live in walkFrom).
//
//yancvet:hotalloc
func (fs *FS) walkRCU(cred Cred, path string, opt resolveOpts) (node, parent *inode, st rcuStatus, err error) {
	root := opt.root
	if root == nil {
		root = fs.root
	}
	cur := root
	curGen := cur.loadGen()
	p, off, ok := nextComp(path, 0)
	if !ok {
		return cur, nil, rcuOK, nil
	}
	for {
		if !cur.isDir() {
			return nil, nil, rcuFail, ErrNotDir
		}
		if !allows(cur, cred, wantExec) {
			return nil, nil, rcuFail, ErrAccess
		}
		np, noff, more := nextComp(path, off)
		last := !more
		if p == ".." {
			return nil, nil, rcuBail, nil
		}
		fs.stats.lookups.Add(1)
		s := cur.kids()
		if h := rcuLookupHook; h != nil {
			h(cur, p)
		}
		child, okc := s.get(p)
		if !okc {
			// A miss is only believable if cur's snapshot is still current:
			// the entry may live in a newer snapshot.
			if cur.loadGen() != curGen {
				return nil, nil, rcuRetry, nil
			}
			if last {
				return nil, cur, rcuOK, nil
			}
			return nil, nil, rcuFail, ErrNotExist
		}
		// Capture the child's generation before revalidating cur: this
		// hand-over-hand order proves the parent entry and the child state
		// we proceed with coexisted.
		childGen := child.loadGen()
		if cur.loadGen() != curGen {
			return nil, nil, rcuRetry, nil
		}
		if child.kind == KindSymlink && (!last || opt.followLast) {
			return nil, nil, rcuBail, nil
		}
		if last {
			return child, cur, rcuOK, nil
		}
		cur, curGen = child, childGen
		p, off = np, noff
	}
}

// lookupRO resolves path for read-only entry points (Stat, ReadDir,
// xattrs, the open fast path): lock-free first, with a bounded retry
// budget, then the read-locked walkFrom. It returns the resolved node —
// nil with a nil error means the final component does not exist but its
// parent path does. Symlink-hop accounting spans both phases: every
// lock-free retry charges one hop, and the accumulated count carries into
// the fallback walk, so a concurrent-rename storm that keeps invalidating
// hops surfaces as ErrTooManyLinks exactly like a symlink loop would.
//
//yancvet:hotalloc
func (fs *FS) lookupRO(cred Cred, path string, opt resolveOpts) (*inode, error) {
	hops := 0
	attempt := 0
walk:
	for {
		n, _, st, err := fs.walkRCU(cred, path, opt)
		switch st {
		case rcuOK:
			fs.lockCtr.resolveLockfree.Add(1)
			return n, nil
		case rcuFail:
			fs.lockCtr.resolveLockfree.Add(1)
			return nil, err
		case rcuRetry:
			hops++
			if hops > maxSymlinkHops {
				fs.lockCtr.resolveFallback.Add(1)
				return nil, ErrTooManyLinks
			}
			if attempt < maxRCURetries {
				attempt++
				continue walk
			}
			break walk
		default: // rcuBail
			break walk
		}
	}
	fs.lockCtr.resolveFallback.Add(1)
	root := opt.root
	if root == nil {
		root = fs.root
	}
	fs.rlockTree()
	_, _, n, err := fs.walkFrom(root, path, cred, opt, root, &hops)
	fs.runlockTree()
	return n, err
}
