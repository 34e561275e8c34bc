package yancfs

import (
	"strconv"
	"testing"

	"yanc/internal/vfs"
)

// liveSink keeps, per flow name, the version the reconciler installed
// last: the fold of the flows directory once the reconciler is idle.
type liveSink struct {
	live                 map[string]uint64
	installs, reinstalls int
}

func (s *liveSink) Install(path string, version uint64, _ *FlowSpec, prev string, known bool) string {
	name := vfs.Base(path)
	if known {
		s.reinstalls++
		delete(s.live, prev)
	}
	s.installs++
	s.live[name] = version
	return name
}

func (s *liveSink) Retire(name string)       { delete(s.live, name) }
func (s *liveSink) Unreadable(string, error) {}
func (s *liveSink) Flush()                   {}

// putFlows commits n flows f0…f<n-1> under sw1 in one transaction.
func putFlows(t *testing.T, y *FS, n int) {
	t.Helper()
	err := y.VFS().WithTx(func(tx *vfs.Tx) error {
		for i := 0; i < n; i++ {
			if _, err := PutFlowTx(tx, FlowPath("sw1", "f"+strconv.Itoa(i)), rewriteSpec(uint64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// drain runs passes until nothing is owed or dirty.
func drain(r *Reconciler[string]) {
	for r.Pass() {
	}
}

// TestReconcilerBurstLeavesNothingGrown: what a burst grows in the
// reconciler — the dirty set, the owed retirements, the pass's scratch,
// the reader — is given back once the burst has drained.
func TestReconcilerBurstLeavesNothingGrown(t *testing.T) {
	y := newFS(t)
	if _, err := CreateSwitch(y.Root(), "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	const burst = 4096
	putFlows(t, y, burst)
	sink := &liveSink{live: make(map[string]uint64)}
	r := NewReconciler[string](y.VFS(), vfs.Join(SwitchPath("sw1"), "flows"), sink)
	drain(r) // the first pass is over every name, as an attach is
	if len(sink.live) != burst {
		t.Fatalf("%d flows installed, want %d", len(sink.live), burst)
	}
	if r.dirty != nil {
		t.Errorf("dirty set kept its backing store (%d entries) after a %d-flow burst", len(r.dirty), burst)
	}
	for i := 0; i < burst; i++ {
		r.Apply(FlowGone, FlowPath("sw1", "f"+strconv.Itoa(i)), nil)
	}
	if st := r.Stats(); st.Owed != burst {
		t.Fatalf("%d retirements owed, want %d", st.Owed, burst)
	}
	drain(r)
	if len(sink.live) != 0 {
		t.Fatalf("%d flows left installed", len(sink.live))
	}
	if c := cap(r.gone); c > passMax {
		t.Errorf("owed retirements kept cap %d > %d", c, passMax)
	}
	// The pass's scratch grows by append to hold passMax entries, so it
	// stops within one growth step of that.
	if c := cap(r.take); c > 2*passMax {
		t.Errorf("pass scratch kept cap %d > %d", c, 2*passMax)
	}
	if c := cap(r.reader.Spec.Actions); c > 16 {
		t.Errorf("reader kept %d actions", c)
	}
}

// TestReconcilerRetranslate: forgetting the installed versions hands
// every flow to the sink again, at its current version and with its
// installed state, and retires the one whose directory went meanwhile.
func TestReconcilerRetranslate(t *testing.T) {
	y := newFS(t)
	if _, err := CreateSwitch(y.Root(), "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	putFlows(t, y, 10)
	sink := &liveSink{live: make(map[string]uint64)}
	r := NewReconciler[string](y.VFS(), vfs.Join(SwitchPath("sw1"), "flows"), sink)
	drain(r)
	if err := DeleteFlow(y.Root(), FlowPath("sw1", "f3")); err != nil {
		t.Fatal(err)
	}
	installs := sink.installs
	r.Retranslate()
	drain(r)
	if got := sink.installs - installs; got != 9 || sink.reinstalls != 9 {
		t.Errorf("retranslation installed %d flows (%d over a known state), want 9 and 9", got, sink.reinstalls)
	}
	if _, ok := sink.live["f3"]; ok || len(sink.live) != 9 {
		t.Errorf("installed after retranslation: %v", sink.live)
	}
	if r.Pass() {
		t.Error("more passes owed after the retranslation drained")
	}
}
