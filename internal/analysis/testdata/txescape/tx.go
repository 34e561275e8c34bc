// Mini-vfs for the txescape analyzer: the same WithTx/ReadTx callback
// shape as internal/vfs, with the Tx-lifetime and blocking bugs planted.
// A *Tx is valid only for the dynamic extent of the callback, and the
// callback runs inside the whole-tree critical section.
package txfix

type Tx struct{ gen uint64 }

func (tx *Tx) Put(path string, v []byte) error { return nil }
func (tx *Tx) Remove(path string) error        { return nil }

type FS struct{}

func (fs *FS) WithTx(fn func(tx *Tx) error) error { return fn(&Tx{}) }
func (fs *FS) ReadTx(fn func(tx *Tx) error) error { return fn(&Tx{}) }

// Proc mirrors vfs.Proc: its WithTx hands out a transaction acting as
// the process, with the same lifetime as FS.WithTx's.
type Proc struct{ fs *FS }

func (p *Proc) WithTx(fn func(tx *Tx) error) error { return fn(&Tx{}) }
