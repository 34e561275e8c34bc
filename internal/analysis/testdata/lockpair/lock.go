// Package lockpair exercises lockorder's leak check: every acquisition
// must be released on all paths out of the function.
package lockpair

import "sync"

type FS struct {
	tree sync.RWMutex
}

func (fs *FS) lockTree()    { fs.tree.Lock() }
func (fs *FS) unlockTree()  { fs.tree.Unlock() }
func (fs *FS) rlockTree()   { fs.tree.RLock() }
func (fs *FS) runlockTree() { fs.tree.RUnlock() }

// An early return that leaks the tree lock.
func (fs *FS) badEarlyReturn(fail bool) error {
	fs.lockTree() // want "not released on all paths"
	if fail {
		return errDummy
	}
	fs.unlockTree()
	return nil
}

// Suppressed: a function that deliberately returns holding the lock.
func (fs *FS) lockTreeAndReturn() {
	fs.lockTree() //yancvet:allow lockorder returns holding the lock by contract
}

// The canonical correct pairings must stay silent.
func (fs *FS) goodDefer() int {
	fs.rlockTree()
	defer fs.runlockTree()
	return 1
}

func (fs *FS) goodBranches(fail bool) error {
	fs.lockTree()
	if fail {
		fs.unlockTree()
		return errDummy
	}
	fs.unlockTree()
	return nil
}

func (fs *FS) goodLoop() {
	for i := 0; i < 3; i++ {
		fs.rlockTree()
		fs.runlockTree()
	}
}

var errDummy = sentinel{}

type sentinel struct{}

func (sentinel) Error() string { return "dummy" }
