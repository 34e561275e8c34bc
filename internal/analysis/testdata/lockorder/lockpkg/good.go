package lockpkg

// The clean shapes the real tree uses: defer pairs, explicit unlocks on
// branch paths, IIFEs under the lock, and providers invoked outside all
// locks. None of these may be reported.

func (fs *FS) goodDeferPair() int {
	fs.rlockTree()
	defer fs.runlockTree()
	return 1
}

func (fs *FS) goodBranchUnlock(fail bool) int {
	fs.rlockTree()
	if fail {
		fs.runlockTree()
		return 0
	}
	fs.runlockTree()
	return 1
}

func (fs *FS) goodIIFE() int {
	fs.lockTree()
	v := func() int {
		return 2
	}()
	fs.unlockTree()
	return v
}

// goodProviderOutside mirrors OpenFile: the provider runs after every
// lock has been released.
func (fs *FS) goodProviderOutside(n *Inode) ([]byte, error) {
	fs.rlockTree()
	fs.runlockTree()
	if n.Synth != nil && n.Synth.Read != nil {
		return n.Synth.Read()
	}
	return nil, nil
}
