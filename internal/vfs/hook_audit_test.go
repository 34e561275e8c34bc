package vfs

import (
	"sync/atomic"
	"testing"
	"time"
)

// Audit result for the locking rewrite: every DirSemantics hook in the
// repo (internal/yancfs) touches the tree only through its Tx, which is
// safe under rule 3 of the lock-ordering discipline. The one re-entrancy
// hazard found was in the VFS itself — Tx.ReadFile used to invoke
// Synthetic.Read while holding the tree write lock, so any provider that
// performs Proc file I/O (the standard procfs-renderer shape) would
// re-acquire the tree lock and self-deadlock. Tx.ReadFile now returns the
// stored bytes and never calls the provider; these are the regression
// tests pinning that behavior.

// TestTxReadFileSyntheticNoProviderReentry creates a synthetic file whose
// Read provider performs Proc I/O, then reads it transactionally. Before
// the fix this deadlocked (provider blocks on rlockTree under lockTree);
// now the provider must not run at all.
func TestTxReadFileSyntheticNoProviderReentry(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.WriteString("/source", "provider-output"); err != nil {
		t.Fatal(err)
	}
	var providerCalls atomic.Uint64
	err := fs.WithTx(func(tx *Tx) error {
		return tx.SetSynthetic("/synth", &Synthetic{
			Read: func() ([]byte, error) {
				providerCalls.Add(1)
				return p.ReadFile("/source") // Proc I/O: takes the tree lock
			},
		}, 0o444, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var txContent []byte
	go func() {
		defer close(done)
		err = fs.WithTx(func(tx *Tx) error {
			b, rerr := tx.ReadFile("/synth")
			txContent = b
			return rerr
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Tx.ReadFile on a Proc-reading synthetic file deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
	if providerCalls.Load() != 0 {
		t.Fatalf("Tx.ReadFile invoked Synthetic.Read %d times under the tree lock", providerCalls.Load())
	}
	if len(txContent) != 0 {
		t.Fatalf("Tx.ReadFile returned provider content %q; want stored bytes", txContent)
	}

	// The open path is where provider content materializes — outside all
	// tree locks, so the same provider is safe there.
	got, err := p.ReadString("/synth")
	if err != nil {
		t.Fatal(err)
	}
	if got != "provider-output" {
		t.Fatalf("open-path read = %q, want provider output", got)
	}
	if providerCalls.Load() != 1 {
		t.Fatalf("provider ran %d times via open; want 1", providerCalls.Load())
	}
}

// TestHookTxOnlyContract documents rule 3 by demonstrating the safe
// pattern: an OnMkdir hook that does everything through its Tx, including
// reading a synthetic sibling, while holding the tree write lock.
func TestHookTxOnlyContract(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/sw", 0o755); err != nil {
		t.Fatal(err)
	}
	err := fs.WithTx(func(tx *Tx) error {
		if err := tx.SetSynthetic("/sw/ctl", &Synthetic{
			Read: func() ([]byte, error) { return []byte("live"), nil },
		}, 0o444, 0, 0); err != nil {
			return err
		}
		return tx.SetSemantics("/sw", &DirSemantics{
			OnMkdir: func(tx *Tx, dir, name string) error {
				// Tx-only: reads (raw bytes for the synthetic), lookups and
				// writes, all without re-entering an entry point.
				if _, err := tx.ReadFile(Join(dir, "ctl")); err != nil {
					return err
				}
				if !tx.IsDir(dir) {
					return ErrNotDir
				}
				return tx.WriteFile(Join(dir, name, "state"), []byte("new"), 0o644, 0, 0)
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = p.Mkdir("/sw/s1", 0o755)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Tx-only hook deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
	if s, err := p.ReadString("/sw/s1/state"); err != nil || s != "new" {
		t.Fatalf("hook output = %q, %v", s, err)
	}
}
