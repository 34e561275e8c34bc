package snappkg

// Publishing with no lock anywhere in sight: the deliberate bug the
// rule exists for. Another writer's copy-on-write cycle can interleave
// and one of the two inserts is silently lost.
func (fs *FS) CreateUnlocked(name string) {
	fs.root.cowInsert(name, &inode{}) // want "published outside the tree write lock"
}

// The read lock is not enough: concurrent read-locked publishers race
// each other exactly like unlocked ones.
func (fs *FS) CreateUnderReadLock(name string) {
	fs.rlockTree()
	defer fs.runlockTree()
	fs.root.setKids(&dirNode{n: 1, ents: []dirEnt{{name, &inode{}}}}) // want "published outside the tree write lock"
}

// A helper is only as locked as its callers: reachable from an unlocked
// entry point, the publish inside it is a bug at the publish site.
func (fs *FS) insertViaHelper(name string) {
	fs.root.cowInsert(name, &inode{}) // want "published outside the tree write lock"
}

func (fs *FS) CreateViaHelper(name string) {
	fs.insertViaHelper(name)
}

// Recursion does not launder an unlocked entry point: the cycle is
// reachable from RemoveUnlocked, so the publish inside it is a bug.
func (fs *FS) removeRecUnlocked(n *inode, name string) {
	for _, e := range n.kids().ents {
		fs.removeRecUnlocked(e.c, e.name)
	}
	n.cowDelete(name) // want "published outside the tree write lock"
}

func (fs *FS) RemoveUnlocked(name string) {
	fs.removeRecUnlocked(fs.root, name)
}

// Storing the pointer directly skips the generation bump, so a lock-free
// reader can validate the new node against the old generation and see a
// path that never existed.
func (fs *FS) StoreWithoutGenBump(root *dirNode) {
	fs.lockTree()
	defer fs.unlockTree()
	fs.root.children.Store(root) // want "use setKids"
}

// Editing a loaded node in place — even under the write lock — races
// every lock-free reader currently searching it.
func (tx *Tx) MutateLoaded(c *inode) {
	root := tx.fs.root.kids()
	root.ents[0].c = c // want "mutated after publish"
	root.n++           // want "mutated after publish"
}

// A write through an alias of the node's entry slice is the same bug.
func (tx *Tx) MutateAlias(c *inode) {
	root := tx.fs.root.kids()
	alias := root.ents
	alias[0] = dirEnt{"x", c} // want "mutated after publish"
}

// Writing through the accessor call directly, without even a variable.
func (tx *Tx) MutateInline() {
	tx.fs.root.kids().n = 0 // want "mutated after publish"
}

// The persistent-structure classic: "inserting" with an in-place append
// lands the new entry in the published backing array whenever it has
// spare capacity, under every reader still holding the old node.
func (d *dirNode) putInPlace(name string, c *inode) *dirNode {
	return &dirNode{n: d.n + 1, ents: append(d.ents, dirEnt{name, c})} // want "mutated after publish"
}

// So is compacting the receiver's entries instead of a copy's.
func (d *dirNode) delInPlace(i int) *dirNode {
	copy(d.ents[i:], d.ents[i+1:])  // want "mutated after publish"
	d.ents = d.ents[:len(d.ents)-1] // want "mutated after publish"
	return d
}

// A struct copy of a node still shares the original's entry array.
func (tx *Tx) MutateThroughCopy(c *inode) {
	nd := *tx.fs.root.kids()
	nd.n = 7         // the copy's own field: fine
	nd.ents[0].c = c // want "mutated after publish"
}
