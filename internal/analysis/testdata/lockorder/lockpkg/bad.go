package lockpkg

// Reentry: the tree lock is not reentrant.
func (fs *FS) badReentry() {
	fs.lockTree()
	fs.rlockTree() // want "already held"
	fs.runlockTree()
	fs.unlockTree()
}

// Rule 2 regression: the PR 3 Tx.ReadFile deadlock — a Synthetic
// provider invoked while the Tx holds the tree write lock.
func (tx *Tx) BadReadFile(n *Inode) ([]byte, error) {
	if n.Synth != nil && n.Synth.Read != nil {
		return n.Synth.Read() // want "provider invoked under the tree lock"
	}
	return nil, nil
}

// Rule 3: a Tx method must not call a Proc-level entry point.
func (tx *Tx) BadStat() int {
	return tx.FS.Stat() // want "tree lock is already held"
}

// A suppressed violation: the directive must silence the report.
func (tx *Tx) allowedStat() int {
	return tx.FS.Stat() //yancvet:allow lockorder exercised by the harness
}
