// Package consumer exercises lockorder's cross-package mode: hooks and
// callbacks that run under lockpkg's tree lock must not re-enter it.
// The facts exported while analyzing lockpkg drive every check here.
package consumer

import "lockorderfixture/lockpkg"

// A hook literal calling an entry point directly.
func bindBadHook(fs *lockpkg.FS) *lockpkg.DirSemantics {
	return &lockpkg.DirSemantics{
		OnMkdir: func(name string) error {
			fs.Stat() // want "runs under it"
			return nil
		},
	}
}

// A hook calling through a local helper: the BFS must follow it.
func bindBadHookIndirect(fs *lockpkg.FS) *lockpkg.DirSemantics {
	return &lockpkg.DirSemantics{
		OnMkdir: func(name string) error {
			helper(fs)
			return nil
		},
	}
}

func helper(fs *lockpkg.FS) {
	fs.Stat() // want "runs under it"
}

// A WithTx callback re-entering the tree lock via an entry point.
func badCallback(fs *lockpkg.FS) {
	fs.WithTx(func(tx *lockpkg.Tx) {
		fs.Stat() // want "runs under it"
	})
}

// A Proc's transaction callback re-entering the tree lock through the
// Proc: Proc.WithTx runs its callback under the lock by handing it to
// the body FS.WithTx shares.
func badProcCallback(p *lockpkg.Proc) {
	p.WithTx(func(tx *lockpkg.Tx) {
		p.Stat() // want "runs under it"
	})
}

// Clean consumers: hooks that stay inside the Tx, and work done after
// the transaction ends.
func bindGoodHook(fs *lockpkg.FS) *lockpkg.DirSemantics {
	return &lockpkg.DirSemantics{
		OnRemove: func(name string) {},
	}
}

func goodCallback(fs *lockpkg.FS) int {
	n := 0
	fs.WithTx(func(tx *lockpkg.Tx) {
		n++
	})
	return fs.Stat()
}

func goodProcCallback(p *lockpkg.Proc) int {
	n := 0
	p.WithTx(func(tx *lockpkg.Tx) {
		n++
	})
	return p.Stat()
}
