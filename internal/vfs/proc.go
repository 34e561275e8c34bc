package vfs

import (
	"math"
	"slices"
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
	fs := p.fs
	fs.stats.creates.Add(1)
	tx := fs.newTx(p)
	fs.lockTree()
	d, err := tx.mkdir(path, mode, p.cred.UID, p.cred.GID)
	fs.unlockTree()
	tx.flush()
	return DirRef{ino: d, root: p.root}, err
}

// owns reports whether p may make a node owned by uid:gid: root may name
// any ids, anyone else only its own, as chown(2) would allow.
func (p *Proc) owns(uid, gid int) bool {
	return p.cred.UID == 0 || uid == p.cred.UID && gid == p.cred.GID
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
	fs := p.fs
	fs.stats.links.Add(1)
	tx := fs.newTx(p)
	fs.lockTree()
	err := func() error {
		parent, name, node, err := tx.resolve(linkPath, false)
		if err != nil {
			return pathErr("symlink", linkPath, err)
		}
		if node != nil {
			return pathErr("symlink", linkPath, ErrExist)
		}
		if err := tx.mayWrite(parent); err != nil {
			return pathErr("symlink", linkPath, err)
		}
		if sem := parent.dir().sem; sem != nil && sem.ValidateSymlink != nil {
			caller := tx.hook()
			verr := sem.ValidateSymlink(tx, pathOf(parent), name, target)
			tx.unhook(caller)
			if verr != nil {
				return pathErr("symlink", linkPath, verr)
			}
		}
		l := fs.newInode(KindSymlink, 0o777, p.cred.UID, p.cred.GID)
		l.setTarget(target)
		parent.cowInsert(internName(name), l)
		parent.touchM(fs.now())
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
	if n.kind() != KindSymlink {
		return "", pathErr("readlink", path, ErrInvalid)
	}
	return n.target(), nil
}

// Link creates a hard link to a regular file.
func (p *Proc) Link(oldPath, newPath string) error {
	if err := p.charge("link", 0); err != nil {
		return err
	}
	fs := p.fs
	fs.stats.links.Add(1)
	tx := fs.newTx(p)
	fs.lockTree()
	err := func() error {
		_, _, src, err := tx.resolve(oldPath, true)
		if err != nil {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: err}
		}
		if src == nil {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: ErrNotExist}
		}
		if src.isDir() {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: ErrPerm}
		}
		parent, name, node, err := tx.resolve(newPath, false)
		if err != nil {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: err}
		}
		if node != nil {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: ErrExist}
		}
		if err := tx.mayWrite(parent); err != nil {
			return &LinkError{Op: "link", Old: oldPath, New: newPath, Err: err}
		}
		parent.cowInsert(internName(name), src)
		src.nlink.Add(1)
		src.touchC()
		parent.touchM(fs.now())
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
func (p *Proc) Remove(path string) error { return p.remove(nil, path, false) }

// RemoveAll removes path and any children it contains, succeeding
// trivially if the path does not exist, its parent included (like
// os.RemoveAll); an ancestor that is not a directory is still an error.
// A Protected entry stays, unless the caller is root.
func (p *Proc) RemoveAll(path string) error { return p.remove(nil, path, true) }

// remove runs the remove body as a one-step transaction, charged and
// counted as one remove: Remove, RemoveAt (dir, the referenced
// directory, set) and, with subtree set, RemoveAll, for which a missing
// path — or a missing ancestor — is success.
//
//yancvet:hotalloc
func (p *Proc) remove(dir *inode, path string, subtree bool) error {
	if err := p.charge("remove", 0); err != nil {
		return err
	}
	fs := p.fs
	fs.stats.removes.Add(1)
	tx := fs.newTx(p)
	fs.lockTree()
	parent, name, node, err := tx.resolveAt(dir, path, false)
	switch {
	case subtree && (err == nil && node == nil || err == ErrNotExist):
		err = nil
	case err == nil:
		err = tx.remove(parent, name, node, subtree)
	}
	if err != nil {
		op := "remove"
		if subtree {
			op = "removeall"
		}
		if dir != nil && !dir.dead() {
			path = pathTo(dir, path) // the entry's real path, read off the tree
		}
		err = pathErr(op, path, err)
	}
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
	fs := p.fs
	fs.stats.renames.Add(1)
	tx := fs.newTx(p)
	fs.lockTree()
	err := tx.rename(oldPath, newPath)
	fs.unlockTree()
	tx.flush()
	return err
}

// Stat describes the node at path, following symlinks. Lock-free on the
// common path: resolution walks published snapshots and the node's own
// fields are atomics.
func (p *Proc) Stat(path string) (Stat, error) {
	if err := p.charge("stat", 0); err != nil {
		return Stat{}, err
	}
	p.fs.stats.stats.Add(1)
	n, err := p.fs.lookupRO(p.cred, path, p.opts(true))
	if err != nil {
		return Stat{}, pathErr("stat", path, err)
	}
	if n == nil {
		return Stat{}, pathErr("stat", path, ErrNotExist)
	}
	return statOf(n, Base(path)), nil
}

// Lstat describes the node at path without following a final symlink.
func (p *Proc) Lstat(path string) (Stat, error) {
	if err := p.charge("stat", 0); err != nil {
		return Stat{}, err
	}
	p.fs.stats.stats.Add(1)
	n, err := p.fs.lookupRO(p.cred, path, p.opts(false))
	if err != nil {
		return Stat{}, pathErr("lstat", path, err)
	}
	if n == nil {
		return Stat{}, pathErr("lstat", path, ErrNotExist)
	}
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

// ReadDir lists a directory in name order, in a slice the caller owns.
// Requires read permission. Fully lock-free: the listing is copied out
// of the directory's immutable published snapshot, and sorted when the
// snapshot is more than one trie leaf, on every call, the way ls sorts.
func (p *Proc) ReadDir(path string) ([]DirEntry, error) {
	it, err := p.openDir(path)
	if err != nil || it.Len() == 0 {
		return nil, err
	}
	out := make([]DirEntry, 0, it.Len())
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		out = append(out, e)
	}
	if it.stack[0].d.bitmap != 0 {
		slices.SortFunc(out, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	}
	return out, nil
}

// openDir opens a cursor over the directory at path, charged and
// counted as one readdir.
func (p *Proc) openDir(path string) (DirIter, error) {
	if err := p.charge("readdir", 0); err != nil {
		return DirIter{}, err
	}
	p.fs.stats.readdirs.Add(1)
	n, err := p.fs.lookupRO(p.cred, path, p.opts(true))
	if err = p.listable(n, err); err != nil {
		return DirIter{}, pathErr("readdir", path, err)
	}
	return n.kids().iter(), nil
}

// listable is the check a directory's lookup passes before it is listed.
//
//yancvet:hotalloc
func (p *Proc) listable(n *inode, err error) error {
	switch {
	case err != nil:
	case n == nil:
		err = ErrNotExist
	case !n.isDir():
		err = ErrNotDir
	case !allows(n, p.cred, wantRead):
		err = ErrAccess
	}
	return err
}

// Chmod changes permission bits; only the owner or root may do so.
func (p *Proc) Chmod(path string, mode FileMode) error {
	if err := p.charge("chmod", 0); err != nil {
		return err
	}
	p.fs.stats.attrs.Add(1)
	// Metadata-only change: the tree read lock suffices (mode and version
	// are atomics).
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
		n.storeMode(mode & 0o7777) // chmod(2) keeps the permission, set-id and sticky bits
		n.touchC()
		ev = Event{Op: OpChmod, Path: realPath(parent, name), IsDir: n.isDir()}
		return nil
	}()
	if err == nil {
		fs.watches.post(ev)
	}
	return err
}

// Chown changes ownership; only root may change the owner. An id given
// as -1 is left as it is, as chown(2) leaves it; any other id outside
// [0, MaxInt32] is ErrInvalid.
func (p *Proc) Chown(path string, uid, gid int) error {
	if err := p.charge("chown", 0); err != nil {
		return err
	}
	p.fs.stats.attrs.Add(1)
	if uid < -1 || uid > math.MaxInt32 || gid < -1 || gid > math.MaxInt32 {
		return pathErr("chown", path, ErrInvalid)
	}
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
		n.touchC()
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
