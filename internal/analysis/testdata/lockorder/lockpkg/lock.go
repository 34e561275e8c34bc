// Package lockpkg is a miniature replica of internal/vfs's locking shape
// used to exercise the lockorder analyzer: a tree RWMutex, Synthetic
// providers, DirSemantics hooks, and a Tx whose methods run under the
// tree lock.
package lockpkg

import "sync"

type Inode struct {
	Synth *Synthetic
}

// Synthetic mirrors vfs.Synthetic: provider callbacks that must run
// outside all tree locks.
type Synthetic struct {
	Read  func() ([]byte, error)
	Write func([]byte) error
}

// DirSemantics mirrors vfs.DirSemantics: hooks invoked under the tree
// write lock.
type DirSemantics struct {
	OnMkdir  func(name string) error
	OnRemove func(name string)
}

type FS struct {
	tree sync.RWMutex
}

func (fs *FS) lockTree()    { fs.tree.Lock() }
func (fs *FS) unlockTree()  { fs.tree.Unlock() }
func (fs *FS) rlockTree()   { fs.tree.RLock() }
func (fs *FS) runlockTree() { fs.tree.RUnlock() }

type Tx struct{ FS *FS }

// WithTx runs fn under the tree write lock, like vfs.FS.WithTx.
func (fs *FS) WithTx(fn func(tx *Tx)) {
	fs.lockTree()
	fn(&Tx{FS: fs})
	fs.unlockTree()
}

// Proc is a process's view, like vfs.Proc.
type Proc struct{ fs *FS }

// WithTx is a process's transaction, like vfs.Proc.WithTx: it hands fn
// on to the body it shares, which runs it under the tree lock.
func (p *Proc) WithTx(fn func(tx *Tx)) { p.fs.withTx(p, fn) }

func (fs *FS) withTx(p *Proc, fn func(tx *Tx)) {
	fs.lockTree()
	fn(&Tx{FS: fs})
	fs.unlockTree()
}

// Stat is a Proc-level entry point, through the process.
func (p *Proc) Stat() int { return p.fs.Stat() }

// Stat is a Proc-level entry point: it takes the tree lock itself.
func (fs *FS) Stat() int {
	fs.rlockTree()
	defer fs.runlockTree()
	return 1
}
