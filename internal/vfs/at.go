package vfs

// The directory-relative calls: openat(2)'s family. A caller about to make
// many calls on the entries of one directory — the dozen field files of a
// flow — resolves the directory once (DirRef) and names each entry
// relative to it, so a call costs one lookup in one directory instead of a
// walk from the root.
//
// The contract is openat's. The ancestors of the directory were checked —
// existence, search permission — when the reference was taken and are not
// looked at again. Every call checks search permission on the referenced
// directory itself and the entry's own permission, exactly as the last
// two steps of the path-based call would. The reference pins nothing and
// caches nothing: it holds the directory's inode, not a path. Used after
// the directory (or an ancestor) was removed, every call fails with
// ErrNotExist and creates nothing; used after the directory or an
// ancestor was renamed, it keeps working and the events it raises carry
// the directory's real path at the time of the call, read off the tree.
//
// Locks: the read calls (ExistsAt, ReadFileAt, ReadDirAt) take none —
// one lock-free lookup in the directory's published children, validated
// against its generation, then the removed mark. WriteFileAt on an
// existing regular file takes the tree read lock just long enough to read
// the directory's path for its events, then the file's stripe; creating a
// file and RemoveAt take the tree write lock, as their path-based calls
// do, with the lookup made in the referenced directory.
//
// Accounting: each call charges the limiter and counts in OpStats and the
// latency histograms as the path-based call it replaces — DirRef and
// ExistsAt as one stat, ReadFileAt as one open and one read, WriteFileAt
// as one open and one write (and one create), ReadDirAt as one readdir,
// RemoveAt as one remove — so a cost model that counts calls reads the
// same; what a call saves is the walk.
//
// A Proc confined by Chroot takes references inside its root and uses
// them like any other: the reference remembers the root it was resolved
// under, which is the confinement check made once. A reference taken
// under another root is resolved again inside the caller's — its path is
// rebuilt from the tree, ErrNotExist when the directory lies outside —
// and the call goes by that path. So does whatever else the fast bodies
// do not handle: a name that is not a single clean component, an entry
// that is a symlink, and — for content — a synthetic file.

// DirRef is a reference to a resolved directory, taken by Proc.DirRef or
// Proc.MkdirRef. The zero DirRef refers to nothing.
type DirRef struct {
	ino  *inode
	root *inode // the root of the Proc that took it
}

// Valid reports whether the reference was ever taken. It says nothing
// about the directory still being there: use is the test.
func (r DirRef) Valid() bool { return r.ino != nil }

// genDead is the bit removeNode sets in a directory's generation when it
// unhooks the directory from the tree, for good: lock-free users of a
// DirRef read it to tell a removed directory, whose published children
// stay walkable (see removeNode), from a live one. Generations count up
// from zero under the tree write lock and never reach it.
const genDead = 1 << 63

// dead reports whether n, a directory, has been removed from the tree.
func (n *inode) dead() bool { return n.dir.gen.Load()&genDead != 0 }

// markDead records n's removal. Tree write lock required, which makes the
// load and the store one step: every generation write happens under it.
func (n *inode) markDead() { n.dir.gen.Store(n.dir.gen.Load() | genDead) }

// DirRef resolves path to a directory reference. It is the stat that
// finds the directory, charged and counted as one.
//
//yancvet:hotalloc
func (p *Proc) DirRef(path string) (DirRef, error) {
	if err := p.charge("stat", 0); err != nil {
		return DirRef{}, err
	}
	p.fs.stats.stats.Add(1)
	start := latStart()
	n, err := p.fs.lookupRO(p.cred, path, p.opts(true))
	p.fs.observe(LatStat, start)
	switch {
	case err != nil:
	case n == nil:
		err = ErrNotExist
	case !n.isDir():
		err = ErrNotDir
	}
	if err != nil {
		return DirRef{}, pathErr("dirref", path, err)
	}
	return DirRef{ino: n, root: p.root}, nil
}

// lookupAt is the lock-free walk of the single component name below dir.
// rcuBail (a symlink the caller would have to follow) and rcuRetry (the
// directory kept changing under the lookup) send the caller to its locked
// or path-based route; a directory removed since the reference was taken
// is ErrNotExist whatever its stale children say.
//
//yancvet:hotalloc
func (fs *FS) lookupAt(cred Cred, dir *inode, name string) (*inode, rcuStatus, error) {
	opt := resolveOpts{followLast: true, root: dir}
	for attempt := 0; ; attempt++ {
		n, _, st, err := fs.walkRCU(cred, name, opt)
		if dir.dead() {
			return nil, rcuFail, ErrNotExist
		}
		if st == rcuOK || st == rcuFail {
			fs.lockCtr.resolveLockfree.Add(1)
			return n, st, err
		}
		if st == rcuBail || attempt == maxRCURetries {
			return nil, st, nil
		}
	}
}

// atFast reports whether a directory-relative call on (ref, name) may
// take its fast body: the reference was taken under this Proc's root and
// name is one clean component.
func (p *Proc) atFast(ref DirRef, name string) bool {
	return ref.ino != nil && ref.root == p.root && isCleanName(name)
}

// refPath spells dir/name as a path this Proc can resolve — relative to
// its root — for the calls that go by path. ErrNotExist when the
// directory is gone or lies outside the Proc's root.
func (p *Proc) refPath(dir *inode, name string) (string, error) {
	if dir != nil {
		p.fs.rlockTree()
		path, ok := pathBelow(p.root, dir, name)
		p.fs.runlockTree()
		if ok {
			return path, nil
		}
	}
	return "", pathErr("dirref", name, ErrNotExist)
}

// spell returns the path an error about (dir, path) names: path itself
// when the call was path-based (dir nil), else the entry's path as this
// Proc sees it, or just its name once the directory is gone.
func (p *Proc) spell(dir *inode, path string) string {
	if dir != nil {
		if full, err := p.refPath(dir, path); err == nil {
			return full
		}
	}
	return path
}

// ExistsAt reports whether name resolves in the referenced directory
// (following a symlink, as Exists does).
//
//yancvet:hotalloc
func (p *Proc) ExistsAt(ref DirRef, name string) bool {
	if p.atFast(ref, name) {
		start := latStart()
		if n, st, err := p.fs.lookupAt(p.cred, ref.ino, name); st == rcuOK || st == rcuFail {
			if p.charge("stat", 0) != nil {
				return false
			}
			p.fs.stats.stats.Add(1)
			p.fs.observe(LatStat, start)
			return err == nil && n != nil
		}
	}
	path, err := p.refPath(ref.ino, name) //yancvet:alloc the path-based route
	return err == nil && p.Exists(path)
}

// ReadFileAt returns the content of the file name in the referenced
// directory.
//
//yancvet:hotalloc
func (p *Proc) ReadFileAt(ref DirRef, name string) ([]byte, error) {
	return p.readAt(ref, name, false)
}

// ReadFileSharedAt is ReadFileAt without the copy, under ReadFileShared's
// write-once contract.
//
//yancvet:hotalloc
func (p *Proc) ReadFileSharedAt(ref DirRef, name string) ([]byte, error) {
	return p.readAt(ref, name, true)
}

// readAt is both of them. A confined Proc's read goes by path (readWhole
// turns it away): its whole-file reads are handle reads, billed the EOF
// round a handle makes, and a reference must not change what a read costs.
//
//yancvet:hotalloc
func (p *Proc) readAt(ref DirRef, name string, share bool) ([]byte, error) {
	if p.atFast(ref, name) {
		if data, ok, err := p.readWhole(ref.ino, name, share); ok {
			return data, err
		}
	}
	path, err := p.refPath(ref.ino, name) //yancvet:alloc the path-based route
	if err != nil {
		return nil, err
	}
	if share {
		return p.ReadFileShared(path)
	}
	return p.ReadFile(path)
}

// WriteFileAt creates or truncates the file name in the referenced
// directory with data.
//
//yancvet:hotalloc
func (p *Proc) WriteFileAt(ref DirRef, name string, data []byte, mode FileMode) error {
	if p.atFast(ref, name) {
		if ok, err := p.writeWhole(ref.ino, name, data, mode); ok {
			return err
		}
	}
	path, err := p.refPath(ref.ino, name) //yancvet:alloc the path-based route
	if err != nil {
		return err
	}
	return p.WriteFile(path, data, mode)
}

// ReadDirAt lists the directory name in the referenced directory, in name
// order; "." lists the referenced directory itself.
//
//yancvet:hotalloc
func (p *Proc) ReadDirAt(ref DirRef, name string) ([]DirEntry, error) {
	if p.atFast(ref, name) || (name == "." && p.atFast(ref, "self")) {
		start := latStart()
		if n, st, err := p.fs.lookupAt(p.cred, ref.ino, name); st == rcuOK || st == rcuFail {
			if err := p.charge("readdir", 0); err != nil {
				return nil, err
			}
			p.fs.stats.readdirs.Add(1)
			defer p.fs.observe(LatReadDir, start)
			switch {
			case err != nil:
			case n == nil:
				err = ErrNotExist
			case !n.isDir():
				err = ErrNotDir
			case !allows(n, p.cred, wantRead):
				err = ErrAccess
			}
			if err != nil {
				return nil, pathErr("readdir", p.spell(ref.ino, name), err)
			}
			return listDir(n), nil //yancvet:alloc the caller's listing
		}
	}
	path, err := p.refPath(ref.ino, name) //yancvet:alloc the path-based route
	if err != nil {
		return nil, err
	}
	return p.ReadDir(path)
}

// RemoveAt removes the entry name of the referenced directory, under
// Remove's rules.
//
//yancvet:hotalloc
func (p *Proc) RemoveAt(ref DirRef, name string) error {
	if !p.atFast(ref, name) {
		path, err := p.refPath(ref.ino, name) //yancvet:alloc the path-based route
		if err != nil {
			return err
		}
		return p.Remove(path)
	}
	if err := p.charge("remove", 0); err != nil {
		return err
	}
	fs := p.fs
	fs.stats.removes.Add(1)
	defer fs.observe(LatRemove, latStart())
	tx := fs.newTx()
	fs.lockTree()
	err := func() error {
		dir := ref.ino
		if dir.dead() {
			return ErrNotExist
		}
		hops := 0
		parent, name, node, err := fs.walkFrom(dir, name, p.cred, p.opts(false), p.root, &hops)
		if err != nil {
			return err
		}
		return p.removeLocked(tx, parent, name, node)
	}()
	if err != nil {
		full := name
		if !ref.ino.dead() {
			full = pathTo(ref.ino, name)
		}
		err = pathErr("remove", full, err)
	}
	fs.unlockTree()
	tx.flush()
	return err
}
