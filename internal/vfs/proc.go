package vfs

import (
	"sort"
	"strings"
)

// Limiter is charged for every operation a Proc performs. The namespace
// package implements cgroup-style accounting and rate limits on top of
// it; a nil Limiter means unlimited.
type Limiter interface {
	// Charge records one operation of the named kind moving n bytes.
	// Returning an error aborts the operation with ErrQuota semantics.
	Charge(op string, n int) error
}

// Proc is a process's view of a file system: a credential, a root
// directory (which a namespace may pin to a subtree, the chroot/mount-
// namespace analog from §5.3), and an optional resource limiter.
type Proc struct {
	fs      *FS
	cred    Cred
	root    *inode
	limiter Limiter
}

// Proc returns a process context with the given credential rooted at the
// file system root.
func (fs *FS) Proc(cred Cred) *Proc {
	return &Proc{fs: fs, cred: cred, root: fs.root}
}

// RootProc returns a superuser process context.
func (fs *FS) RootProc() *Proc { return fs.Proc(Root) }

// FS returns the underlying file system.
func (p *Proc) FS() *FS { return p.fs }

// Cred returns the process credential.
func (p *Proc) Cred() Cred { return p.cred }

// WithCred returns a Proc sharing this Proc's root but a new credential.
func (p *Proc) WithCred(cred Cred) *Proc {
	return &Proc{fs: p.fs, cred: cred, root: p.root, limiter: p.limiter}
}

// WithLimiter returns a Proc with resource accounting attached.
func (p *Proc) WithLimiter(l Limiter) *Proc {
	return &Proc{fs: p.fs, cred: p.cred, root: p.root, limiter: l}
}

// Chroot returns a Proc whose root is pinned to the subtree at path. Path
// resolution (including absolute symlink targets and "..") cannot escape
// it — the isolation primitive views and slices rely on.
func (p *Proc) Chroot(path string) (*Proc, error) {
	n, err := p.fs.lookupRO(p.cred, path, resolveOpts{followLast: true, root: p.root})
	if err != nil {
		return nil, pathErr("chroot", path, err)
	}
	if n == nil {
		return nil, pathErr("chroot", path, ErrNotExist)
	}
	if !n.isDir() {
		return nil, pathErr("chroot", path, ErrNotDir)
	}
	return &Proc{fs: p.fs, cred: p.cred, root: n, limiter: p.limiter}, nil
}

// realPath reconstructs the root-absolute path of a resolved (parent,
// name) pair; events must carry real paths regardless of the caller's
// namespace.
func realPath(parent *inode, name string) string {
	if parent == nil {
		return "/"
	}
	return pathTo(parent, name)
}

func (p *Proc) charge(op string, n int) error {
	if p.limiter == nil {
		return nil
	}
	if err := p.limiter.Charge(op, n); err != nil {
		return pathErr(op, "", ErrQuota)
	}
	return nil
}

// opts returns resolution options for this Proc.
func (p *Proc) opts(followLast bool) resolveOpts {
	return resolveOpts{followLast: followLast, root: p.root}
}

// Mkdir creates a directory and fires the parent's OnMkdir semantics, so
// creating a yanc object directory automatically populates its typed
// children (§3.1).
func (p *Proc) Mkdir(path string, mode FileMode) error {
	_, err := p.MkdirRef(path, mode)
	return err
}

// MkdirRef is Mkdir handing back a reference to the directory it made, for
// a caller that goes on to fill it: mkdir and the lookup that would follow
// it, in the one call. Charged and counted as Mkdir.
//
//yancvet:hotalloc
func (p *Proc) MkdirRef(path string, mode FileMode) (DirRef, error) {
	if err := p.charge("mkdir", 0); err != nil {
		return DirRef{}, err
	}
	p.fs.stats.creates.Add(1)
	defer p.fs.observe(LatMkdir, latStart())
	fs := p.fs
	tx := fs.newTx()
	fs.lockTree()
	d, err := p.mkdirLocked(tx, path, mode)
	fs.unlockTree()
	tx.flush()
	return DirRef{ino: d, root: p.root}, err
}

func (p *Proc) mkdirLocked(tx *Tx, path string, mode FileMode) (*inode, error) {
	parent, name, node, err := p.fs.resolve(p.cred, path, p.opts(false))
	if err != nil {
		return nil, pathErr("mkdir", path, err)
	}
	if node != nil {
		return nil, pathErr("mkdir", path, ErrExist)
	}
	if !allows(parent, p.cred, wantWrite) {
		return nil, pathErr("mkdir", path, ErrAccess)
	}
	name = internName(name)
	now := p.fs.now()
	d := p.fs.bareInode(KindDir, mode.Perm(), p.cred.UID, p.cred.GID, now)
	d.dir.parent = parent
	d.dir.name = name
	parent.cowInsert(name, d)
	parent.nlink.Add(1)
	p.fs.touchMS(parent, now)
	tx.queue(Event{Op: OpCreate, Path: pathTo(parent, name), IsDir: true})
	if parent.dir.sem != nil && parent.dir.sem.OnMkdir != nil {
		tx.creator = p.cred
		tx.hasCred = true
		//yancvet:alloc the hook's directory path; only a directory that has the hook pays for it
		if err := parent.dir.sem.OnMkdir(tx, pathOf(parent), name); err != nil {
			// Semantic veto: roll the directory back out.
			parent.cowDelete(name)
			parent.nlink.Add(-1)
			d.dir.parent = nil
			d.markDead()
			tx.discard()
			return nil, pathErr("mkdir", path, err)
		}
	}
	return d, nil
}

// MkdirAll creates path and any missing parents (like mkdir -p).
func (p *Proc) MkdirAll(path string, mode FileMode) error {
	parts := splitPath(path)
	cur := "/"
	for _, part := range parts {
		cur = Join(cur, part)
		err := p.Mkdir(cur, mode)
		if err != nil && !errIsAny(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Symlink creates a symbolic link, subject to the containing directory's
// ValidateSymlink semantics (yanc rejects a port "peer" link that does not
// point at another port).
func (p *Proc) Symlink(target, linkPath string) error {
	if err := p.charge("symlink", 0); err != nil {
		return err
	}
	p.fs.stats.links.Add(1)
	fs := p.fs
	fs.lockTree()
	tx := fs.newTx()
	err := func() error {
		parent, name, node, err := fs.resolve(p.cred, linkPath, p.opts(false))
		if err != nil {
			return pathErr("symlink", linkPath, err)
		}
		if node != nil {
			return pathErr("symlink", linkPath, ErrExist)
		}
		if !allows(parent, p.cred, wantWrite) {
			return pathErr("symlink", linkPath, ErrAccess)
		}
		if parent.dir.sem != nil && parent.dir.sem.ValidateSymlink != nil {
			if verr := parent.dir.sem.ValidateSymlink(tx, pathOf(parent), name, target); verr != nil {
				return pathErr("symlink", linkPath, verr)
			}
		}
		l := fs.newInode(KindSymlink, 0o777, p.cred.UID, p.cred.GID)
		l.extend().target = target
		parent.cowInsert(name, l)
		fs.touchMS(parent, fs.now())
		tx.queue(Event{Op: OpCreate, Path: pathTo(parent, name)})
		return nil
	}()
	fs.unlockTree()
	tx.flush()
	return err
}

// Readlink returns the target of a symbolic link. Lock-free: the target
// is immutable and resolution walks snapshots.
func (p *Proc) Readlink(path string) (string, error) {
	p.fs.stats.stats.Add(1)
	n, err := p.fs.lookupRO(p.cred, path, p.opts(false))
	if err != nil {
		return "", pathErr("readlink", path, err)
	}
	if n == nil {
		return "", pathErr("readlink", path, ErrNotExist)
	}
	if n.kind != KindSymlink {
		return "", pathErr("readlink", path, ErrInvalid)
	}
	return n.target(), nil
}

// Link creates a hard link to a regular file.
func (p *Proc) Link(oldPath, newPath string) error {
	if err := p.charge("link", 0); err != nil {
		return err
	}
	p.fs.stats.links.Add(1)
	fs := p.fs
	fs.lockTree()
	tx := fs.newTx()
	err := func() error {
		_, _, src, err := fs.resolve(p.cred, oldPath, p.opts(true))
		if err != nil {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: err}
		}
		if src == nil {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: ErrNotExist}
		}
		if src.isDir() {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: ErrPerm}
		}
		parent, name, node, err := fs.resolve(p.cred, newPath, p.opts(false))
		if err != nil {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: err}
		}
		if node != nil {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: ErrExist}
		}
		if !allows(parent, p.cred, wantWrite) {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: ErrAccess}
		}
		parent.cowInsert(name, src)
		src.nlink.Add(1)
		now := fs.now()
		fs.touchCS(src, now)
		fs.touchMS(parent, now)
		tx.queue(Event{Op: OpCreate, Path: pathTo(parent, name)})
		return nil
	}()
	fs.unlockTree()
	tx.flush()
	return err
}

// Remove unlinks a file or symlink, or removes a directory. Directories
// must be empty unless the parent's semantics set RecursiveRmdir (§3.2:
// "the rmdir() call for switches is automatically recursive").
func (p *Proc) Remove(path string) error {
	if err := p.charge("remove", 0); err != nil {
		return err
	}
	p.fs.stats.removes.Add(1)
	defer p.fs.observe(LatRemove, latStart())
	fs := p.fs
	fs.lockTree()
	tx := fs.newTx()
	err := func() error {
		parent, name, node, err := fs.resolve(p.cred, path, p.opts(false))
		if err != nil {
			return pathErr("remove", path, err)
		}
		if err := p.removeLocked(tx, parent, name, node); err != nil {
			return pathErr("remove", path, err)
		}
		return nil
	}()
	fs.unlockTree()
	tx.flush()
	return err
}

// removeLocked unlinks node, which resolution found at (parent, name),
// under Remove's rules: the entry must exist and not be the root, the
// caller needs write permission on the directory, a protected entry
// stays, and a directory goes only when empty or when the parent's
// semantics make rmdir recursive. Tree write lock required; errors are
// bare errnos.
func (p *Proc) removeLocked(tx *Tx, parent *inode, name string, node *inode) error {
	switch {
	case node == nil:
		return ErrNotExist
	case parent == nil:
		return ErrBusy // the root itself
	case !allows(parent, p.cred, wantWrite):
		return ErrAccess
	case parent.dir.sem != nil && parent.dir.sem.Protected[name] && p.cred.UID != 0:
		return ErrPerm
	case node.isDir() && node.childCount() > 0 && !(parent.dir.sem != nil && parent.dir.sem.RecursiveRmdir):
		return ErrNotEmpty
	}
	p.fs.unlinkLocked(parent, name, node, tx)
	return nil
}

// RemoveAll removes path and any children it contains, succeeding
// trivially if the path does not exist (like os.RemoveAll).
func (p *Proc) RemoveAll(path string) error {
	if err := p.charge("remove", 0); err != nil {
		return err
	}
	p.fs.stats.removes.Add(1)
	defer p.fs.observe(LatRemove, latStart())
	fs := p.fs
	fs.lockTree()
	tx := fs.newTx()
	err := func() error {
		parent, name, node, err := fs.resolve(p.cred, path, p.opts(false))
		if err != nil {
			return pathErr("removeall", path, err)
		}
		if node == nil {
			return nil
		}
		if parent == nil {
			return pathErr("removeall", path, ErrBusy)
		}
		if !allows(parent, p.cred, wantWrite) {
			return pathErr("removeall", path, ErrAccess)
		}
		fs.unlinkLocked(parent, name, node, tx)
		return nil
	}()
	fs.unlockTree()
	tx.flush()
	return err
}

// Rename moves old to new (within this file system). Directories move
// with their subtrees; an existing empty target directory or target file
// is replaced, as rename(2) does.
func (p *Proc) Rename(oldPath, newPath string) error {
	if err := p.charge("rename", 0); err != nil {
		return err
	}
	p.fs.stats.renames.Add(1)
	defer p.fs.observe(LatRename, latStart())
	fs := p.fs
	fs.lockTree()
	tx := fs.newTx()
	err := func() error {
		lerr := func(err error) error {
			return &LinkError{Op: "rename", Old: oldPath, New: newPath, Err: err}
		}
		oldParent, oldName, node, err := fs.resolve(p.cred, oldPath, p.opts(false))
		if err != nil {
			return lerr(err)
		}
		if node == nil {
			return lerr(ErrNotExist)
		}
		if oldParent == nil {
			return lerr(ErrBusy)
		}
		newParent, newName, target, err := fs.resolve(p.cred, newPath, p.opts(false))
		if err != nil {
			return lerr(err)
		}
		if !allows(oldParent, p.cred, wantWrite) || !allows(newParent, p.cred, wantWrite) {
			return lerr(ErrAccess)
		}
		if oldParent.dir.sem != nil && oldParent.dir.sem.Protected[oldName] && p.cred.UID != 0 {
			return lerr(ErrPerm)
		}
		if target == node {
			return nil
		}
		if err := fs.renameLocked(tx, oldParent, oldName, node, newParent, newName, target); err != nil {
			return lerr(err)
		}
		return nil
	}()
	fs.unlockTree()
	tx.flush()
	return err
}

// Stat describes the node at path, following symlinks. Lock-free on the
// common path: resolution walks published snapshots and only the node's
// own stripe is taken to read its times/size.
func (p *Proc) Stat(path string) (Stat, error) {
	if err := p.charge("stat", 0); err != nil {
		return Stat{}, err
	}
	p.fs.stats.stats.Add(1)
	defer p.fs.observe(LatStat, latStart())
	n, err := p.fs.lookupRO(p.cred, path, p.opts(true))
	if err != nil {
		return Stat{}, pathErr("stat", path, err)
	}
	if n == nil {
		return Stat{}, pathErr("stat", path, ErrNotExist)
	}
	s := p.fs.rlockNode(n)
	defer s.mu.RUnlock()
	return statOf(n, Base(path)), nil
}

// Lstat describes the node at path without following a final symlink.
func (p *Proc) Lstat(path string) (Stat, error) {
	if err := p.charge("stat", 0); err != nil {
		return Stat{}, err
	}
	p.fs.stats.stats.Add(1)
	defer p.fs.observe(LatStat, latStart())
	n, err := p.fs.lookupRO(p.cred, path, p.opts(false))
	if err != nil {
		return Stat{}, pathErr("lstat", path, err)
	}
	if n == nil {
		return Stat{}, pathErr("lstat", path, ErrNotExist)
	}
	s := p.fs.rlockNode(n)
	defer s.mu.RUnlock()
	return statOf(n, Base(path)), nil
}

// Exists reports whether path resolves (following symlinks).
func (p *Proc) Exists(path string) bool {
	_, err := p.Stat(path)
	return err == nil
}

// IsDir reports whether path is a directory.
func (p *Proc) IsDir(path string) bool {
	st, err := p.Stat(path)
	return err == nil && st.IsDir()
}

// ReadDir lists a directory in name order. Requires read permission.
// Fully lock-free: the listing materializes from the directory's
// immutable published snapshot.
func (p *Proc) ReadDir(path string) ([]DirEntry, error) {
	if err := p.charge("readdir", 0); err != nil {
		return nil, err
	}
	p.fs.stats.readdirs.Add(1)
	defer p.fs.observe(LatReadDir, latStart())
	n, err := p.fs.lookupRO(p.cred, path, p.opts(true))
	if err != nil {
		return nil, pathErr("readdir", path, err)
	}
	if n == nil {
		return nil, pathErr("readdir", path, ErrNotExist)
	}
	if !n.isDir() {
		return nil, pathErr("readdir", path, ErrNotDir)
	}
	if !allows(n, p.cred, wantRead) {
		return nil, pathErr("readdir", path, ErrAccess)
	}
	return listDir(n), nil
}

// Chmod changes permission bits; only the owner or root may do so.
func (p *Proc) Chmod(path string, mode FileMode) error {
	if err := p.charge("chmod", 0); err != nil {
		return err
	}
	p.fs.stats.attrs.Add(1)
	// Metadata-only change: the tree read lock suffices (mode is atomic,
	// ctime/version go under the inode's stripe).
	fs := p.fs
	var ev Event
	err := func() error {
		fs.rlockTree()
		defer fs.runlockTree()
		parent, name, n, err := fs.resolve(p.cred, path, p.opts(true))
		if err != nil {
			return pathErr("chmod", path, err)
		}
		if n == nil {
			return pathErr("chmod", path, ErrNotExist)
		}
		if p.cred.UID != 0 && p.cred.UID != n.loadUID() {
			return pathErr("chmod", path, ErrPerm)
		}
		n.storeMode(mode)
		s := fs.lockNode(n)
		n.touchC(fs.now())
		s.mu.Unlock()
		ev = Event{Op: OpChmod, Path: realPath(parent, name), IsDir: n.isDir()}
		return nil
	}()
	if err == nil {
		fs.watches.post(ev)
	}
	return err
}

// Chown changes ownership; only root may change the owner.
func (p *Proc) Chown(path string, uid, gid int) error {
	if err := p.charge("chown", 0); err != nil {
		return err
	}
	p.fs.stats.attrs.Add(1)
	fs := p.fs
	var ev Event
	err := func() error {
		fs.rlockTree()
		defer fs.runlockTree()
		parent, name, n, err := fs.resolve(p.cred, path, p.opts(true))
		if err != nil {
			return pathErr("chown", path, err)
		}
		if n == nil {
			return pathErr("chown", path, ErrNotExist)
		}
		if p.cred.UID != 0 {
			return pathErr("chown", path, ErrPerm)
		}
		n.storeOwner(uid, gid)
		s := fs.lockNode(n)
		n.touchC(fs.now())
		s.mu.Unlock()
		ev = Event{Op: OpChmod, Path: realPath(parent, name), IsDir: n.isDir()}
		return nil
	}()
	if err == nil {
		fs.watches.post(ev)
	}
	return err
}

// WalkFunc visits a path during Walk. Returning SkipDir skips a
// directory's children.
type WalkFunc func(path string, st Stat) error

// SkipDir is the WalkFunc sentinel to skip a directory subtree.
var SkipDir = &PathError{Op: "walk", Path: "", Err: ErrInvalid}

// Walk traverses the tree depth-first in name order starting at root,
// calling fn for every visitable node. Symlinks are reported, not
// followed (matching filepath.Walk).
func (p *Proc) Walk(root string, fn WalkFunc) error {
	st, err := p.Lstat(root)
	if err != nil {
		return err
	}
	return p.walk(Clean(root), st, fn)
}

func (p *Proc) walk(path string, st Stat, fn WalkFunc) error {
	err := fn(path, st)
	if err == SkipDir {
		return nil
	}
	if err != nil {
		return err
	}
	if !st.IsDir() {
		return nil
	}
	entries, err := p.ReadDir(path)
	if err != nil {
		return err
	}
	for _, e := range entries {
		child := Join(path, e.Name)
		cst, err := p.Lstat(child)
		if err != nil {
			continue // removed concurrently
		}
		if err := p.walk(child, cst, fn); err != nil {
			return err
		}
	}
	return nil
}

// Glob returns paths matching a shell pattern with "*" wildcards in any
// component (no "**"). The pattern must be absolute.
func (p *Proc) Glob(pattern string) ([]string, error) {
	parts := splitPath(pattern)
	cur := []string{"/"}
	for _, part := range parts {
		var next []string
		for _, dir := range cur {
			if !strings.ContainsAny(part, "*?[") {
				cand := Join(dir, part)
				if _, err := p.Lstat(cand); err == nil {
					next = append(next, cand)
				}
				continue
			}
			entries, err := p.ReadDir(dir)
			if err != nil {
				continue
			}
			for _, e := range entries {
				if ok, _ := matchPattern(part, e.Name); ok {
					next = append(next, Join(dir, e.Name))
				}
			}
		}
		cur = next
	}
	sort.Strings(cur)
	return cur, nil
}

// matchPattern implements a small glob: '*' any run, '?' any char.
func matchPattern(pattern, name string) (bool, error) {
	var match func(p, s string) bool
	match = func(p, s string) bool {
		for len(p) > 0 {
			switch p[0] {
			case '*':
				for i := 0; i <= len(s); i++ {
					if match(p[1:], s[i:]) {
						return true
					}
				}
				return false
			case '?':
				if len(s) == 0 {
					return false
				}
				p, s = p[1:], s[1:]
			default:
				if len(s) == 0 || s[0] != p[0] {
					return false
				}
				p, s = p[1:], s[1:]
			}
		}
		return len(s) == 0
	}
	return match(pattern, name), nil
}
