package snappkg

// Tx methods are write-locked contexts by contract: publishing from one
// is the canonical correct shape.
func (tx *Tx) Mkdir(name string) {
	tx.fs.root.cowInsert(name, &inode{})
}

// An entry point that takes the tree write lock itself may publish.
func (fs *FS) CreateLocked(name string) {
	fs.lockTree()
	defer fs.unlockTree()
	fs.root.cowInsert(name, &inode{})
}

// A helper with no lock of its own is fine when every caller is a
// locked context (CreateTwo below, a lockTree holder).
func (fs *FS) insertBoth(a, b string) {
	fs.root.cowInsert(a, &inode{})
	fs.root.cowInsert(b, &inode{})
}

func (fs *FS) CreateTwo(a, b string) {
	fs.lockTree()
	defer fs.unlockTree()
	fs.insertBoth(a, b)
}

// Reading a snapshot is always legal, lock or no lock: lookups search
// and range, they never write.
func (fs *FS) Lookup(name string) *inode {
	return fs.root.kids().get(name)
}

// Building a fresh node from the published one and publishing the copy
// is the whole point of copy-on-write — the new node is private until
// setKids swaps it in.
func (tx *Tx) Replace(name string, c *inode) {
	old := tx.fs.root.kids()
	nd := &dirNode{ents: make([]dirEnt, len(old.ents))}
	copy(nd.ents, old.ents)
	nd.ents[0] = dirEnt{name, c}
	nd.n = len(nd.ents)
	tx.fs.root.setKids(nd)
}

// What an entry points at is not the node's memory: inodes reached
// through a published node stay mutable under their own rules, and a
// range value is the loop's own copy of the entry.
func (tx *Tx) HideAll() {
	for _, e := range tx.fs.root.kids().ents {
		e.c.hidden = true
		e.name = ""
	}
}

// A recursive helper (the shape of a subtree teardown) is as locked as
// the entry points that reach it: the self-edge must not condemn it.
func (fs *FS) removeRec(n *inode, name string) {
	for _, e := range n.kids().ents {
		fs.removeRec(e.c, e.name)
	}
	n.cowDelete(name)
}

func (fs *FS) RemoveLocked(name string) {
	fs.lockTree()
	defer fs.unlockTree()
	fs.removeRec(fs.root, name)
}

// A dynamic entry point (no static caller) can vouch for its context
// with an allow directive when the lock is taken by machinery the call
// graph cannot see.
func (fs *FS) hookBody(name string) {
	fs.root.cowInsert(name, &inode{}) //yancvet:allow snapshotpub hook registered under WithTx only
}
