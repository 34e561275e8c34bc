// Escape bugs: the Tx handle (or an alias of it) outlives the callback.
package txfix

var leaked *Tx

func badGlobalStore(fs *FS) error {
	return fs.WithTx(func(tx *Tx) error {
		leaked = tx // want "stored to package variable"
		return nil
	})
}

func badOuterVar(fs *FS) (*Tx, error) {
	var keep *Tx
	err := fs.WithTx(func(tx *Tx) error {
		keep = tx // want "declared outside the callback"
		return nil
	})
	return keep, err
}

type cache struct{ tx *Tx }

func badFieldStore(fs *FS, c *cache) error {
	return fs.WithTx(func(tx *Tx) error {
		c.tx = tx // want "stored through a field/element/pointer"
		return nil
	})
}

func badChanSend(fs *FS, ch chan *Tx) error {
	return fs.WithTx(func(tx *Tx) error {
		// The try-send is non-blocking, but the handle still crosses the
		// channel to a receiver that outlives the lock.
		select {
		case ch <- tx: // want "sent on a channel"
		default:
		}
		return nil
	})
}

func badAliasAppend(fs *FS, keep []*Tx) ([]*Tx, error) {
	err := fs.ReadTx(func(tx *Tx) error {
		t := tx
		keep = append(keep, t) // want "appended to a slice"
		return nil
	})
	return keep, err
}

func badGoCapture(fs *FS) error {
	return fs.WithTx(func(tx *Tx) error {
		go func() { // want "captures the Tx handle"
			_ = tx.gen
		}()
		return nil
	})
}

// goodBorrow passes the handle down a call chain: the callee returns
// before the callback does, so the lifetime holds.
func goodBorrow(fs *FS) error {
	return fs.WithTx(func(tx *Tx) error {
		return writeDefaults(tx, "/defaults")
	})
}

func writeDefaults(tx *Tx, p string) error { return tx.Put(p, nil) }

// allowedHandoff is a deliberate, annotated violation: the receiver is
// known to complete before WithTx returns in this rig.
func allowedHandoff(fs *FS, ch chan *Tx) error {
	return fs.WithTx(func(tx *Tx) error {
		select {
		case ch <- tx: //yancvet:allow txescape rendezvous: the receiver completes before the callback returns
		default:
		}
		return nil
	})
}

// A Proc's transaction is no longer-lived than the kernel's.
func badProcOuterVar(p *Proc) (*Tx, error) {
	var keep *Tx
	err := p.WithTx(func(tx *Tx) error {
		keep = tx // want "declared outside the callback"
		return nil
	})
	return keep, err
}
