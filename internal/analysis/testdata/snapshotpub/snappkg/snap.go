// Package snappkg is a miniature replica of internal/vfs's snapshot
// publication shape used to exercise the snapshotpub analyzer: a tree
// RWMutex with the lockTree vocabulary, an inode whose children node is
// an atomic snapshot with a generation counter, a one-node stand-in for
// the persistent children trie, and the copy-on-write publisher helpers.
package snappkg

import (
	"sync"
	"sync/atomic"
)

type FS struct {
	tree sync.RWMutex
	root *inode
}

func (fs *FS) lockTree()    { fs.tree.Lock() }
func (fs *FS) unlockTree()  { fs.tree.Unlock() }
func (fs *FS) rlockTree()   { fs.tree.RLock() }
func (fs *FS) runlockTree() { fs.tree.RUnlock() }

// Tx methods run under the tree write lock by contract.
type Tx struct{ fs *FS }

type inode struct {
	children atomic.Pointer[dirNode]
	gen      atomic.Uint64
	hidden   bool
}

// dirNode is the published children node: entries sorted by name,
// immutable once a setKids made it reachable.
type dirNode struct {
	n    int
	ents []dirEnt
}

type dirEnt struct {
	name string
	c    *inode
}

// kids returns the published children node; callers may only read.
func (n *inode) kids() *dirNode { return n.children.Load() }

// setKids publishes root: generation bump, then swap. Tree write lock held.
func (n *inode) setKids(root *dirNode) {
	n.gen.Add(1)
	n.children.Store(root)
}

// get finds one name (nil-safe).
func (d *dirNode) get(name string) *inode {
	if d == nil {
		return nil
	}
	for _, e := range d.ents {
		if e.name == name {
			return e.c
		}
	}
	return nil
}

// put returns a copy of d that also maps name to c: the receiver is
// published and only read; the copy is private and filled freely.
func (d *dirNode) put(name string, c *inode) *dirNode {
	nd := &dirNode{}
	if d != nil {
		nd.ents = make([]dirEnt, 0, len(d.ents)+1)
		for _, e := range d.ents {
			if e.name != name {
				nd.ents = append(nd.ents, e)
			}
		}
	}
	nd.ents = append(nd.ents, dirEnt{name, c})
	nd.n = len(nd.ents)
	return nd
}

// del returns a copy of d without name.
func (d *dirNode) del(name string) *dirNode {
	nd := &dirNode{}
	if d != nil {
		for _, e := range d.ents {
			if e.name != name {
				nd.ents = append(nd.ents, e)
			}
		}
	}
	nd.n = len(nd.ents)
	return nd
}

// cowInsert path-copies name into n's children. Tree write lock held.
func (n *inode) cowInsert(name string, c *inode) {
	n.setKids(n.kids().put(name, c))
}

// cowDelete path-copies name out of n's children. Tree write lock held.
func (n *inode) cowDelete(name string) {
	n.setKids(n.kids().del(name))
}
