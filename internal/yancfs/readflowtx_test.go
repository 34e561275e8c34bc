package yancfs

import (
	"errors"
	"fmt"
	"testing"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
)

// readFlowTx runs one ReadFlowTx under a read transaction.
func readFlowTx(t *testing.T, y *FS, flowPath string, installed uint64, r *FlowReader) (v uint64, err error) {
	t.Helper()
	if rerr := y.VFS().ReadTx(func(tx *vfs.Tx) error {
		v, err = ReadFlowTx(tx, flowPath, installed, r)
		return nil
	}); rerr != nil {
		t.Fatal(rerr)
	}
	return v, err
}

func rewriteSpec(g uint64) FlowSpec {
	s := FlowSpec{Priority: uint16(g % 60000), Cookie: g, IdleTimeout: uint16(g % 7)}
	m, err := openflow.ParseMatch(fmt.Sprintf("dl_type=0x0800,nw_proto=6,nw_dst=10.0.%d.%d,tp_dst=%d", g>>8&0xff, g&0xff, 1+g%60000))
	if err != nil {
		panic(err)
	}
	s.Match = m
	if g%2 == 0 {
		// Even commits carry files odd ones lack, so a rewrite has
		// match.* and action.* files to take away as well as to add.
		s.Match.SetField(openflow.FieldTPSrc, "99")
		s.Actions = append(s.Actions, openflow.Action{Type: openflow.ActSetNWTos, TOS: 16})
	}
	s.Actions = append(s.Actions, openflow.Output(uint32(1+g%4)))
	return s
}

func sameSpec(a, b FlowSpec) bool {
	return a.Priority == b.Priority && a.Cookie == b.Cookie && a.IdleTimeout == b.IdleTimeout && a.HardTimeout == b.HardTimeout &&
		a.Match.Set == b.Match.Set && a.Match.Equal(b.Match) && openflow.FormatActions(a.Actions) == openflow.FormatActions(b.Actions)
}

// TestReadFlowTxGate: what the version file decides before anything else
// is read.
func TestReadFlowTxGate(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	flow := FlowPath("sw1", "f1")
	var r FlowReader
	if _, err := readFlowTx(t, y, flow, 0, &r); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("missing flow: %v", err)
	}
	// Staged, not committed: the skeleton has no version yet, or an empty
	// one mid-rewrite.
	if err := p.Mkdir(flow, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString(vfs.Join(flow, "match.tp_dst"), "80\n"); err != nil {
		t.Fatal(err)
	}
	for _, installed := range []uint64{0, 4} {
		if v, err := readFlowTx(t, y, flow, installed, &r); err != nil || v != installed {
			t.Fatalf("uncommitted flow, installed %d: v%d %v", installed, v, err)
		}
	}
	want := rewriteSpec(6)
	if v, err := WriteFlow(p, flow, want); err != nil || v != 1 {
		t.Fatalf("commit: v%d %v", v, err)
	}
	v, err := readFlowTx(t, y, flow, 0, &r)
	if err != nil || v != 1 || r.Name != "f1" || !sameSpec(r.Spec, want) {
		t.Fatalf("committed flow: v%d %v name %q spec %+v", v, err, r.Name, r.Spec)
	}
	// Already installed: nothing is parsed, r.Spec keeps the last flow.
	r.Spec.Cookie = 12345
	if v, err := readFlowTx(t, y, flow, 1, &r); err != nil || v != 1 || r.Spec.Cookie != 12345 {
		t.Fatalf("installed flow: v%d %v cookie %d", v, err, r.Spec.Cookie)
	}
	// Version text the writers never produce still compares by value.
	for _, text := range []string{"1", " 1 \n", "garbage\n", "0\n", ""} {
		if err := p.WriteString(vfs.Join(flow, FileVersion), text); err != nil {
			t.Fatal(err)
		}
		if v, err := readFlowTx(t, y, flow, 1, &r); err != nil || v != 1 {
			t.Fatalf("version %q against installed 1: v%d %v", text, v, err)
		}
	}
	// A malformed field is an error, not a flow with the field missing.
	if _, err := CommitFlow(p, flow); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString(vfs.Join(flow, "match.nw_dst"), "not-an-address\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := readFlowTx(t, y, flow, 0, &r); err == nil {
		t.Fatal("malformed match file parsed")
	}
}

// TestStressReadFlowTxSeesWholeCommits closes the hole ReadFlow has:
// PutFlowTx's rewrite branch removes every match.* and action.* file and
// writes the new ones back, and a reader outside a transaction can list
// the directory in between with the version unchanged on both sides.
// ReadFlowTx runs inside one, so every spec it returns must be complete
// for the version it returns.
func TestStressReadFlowTxSeesWholeCommits(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	flow := FlowPath("sw1", "f1")
	put := func(g uint64) (v uint64, err error) {
		err = y.VFS().WithTx(func(tx *vfs.Tx) error {
			v, err = y.PutFlowTx(tx, flow, rewriteSpec(g))
			return err
		})
		return v, err
	}
	if v, err := put(1); err != nil || v != 1 {
		t.Fatalf("first put: v%d %v", v, err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for g := uint64(2); ; g++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if v, err := put(g); err != nil || v != g {
				done <- fmt.Errorf("put %d: v%d %v", g, v, err)
				return
			}
		}
	}()
	var r FlowReader
	var installed uint64
	for reads := 0; installed < 400 && reads < 2_000_000; reads++ {
		v, err := readFlowTx(t, y, flow, installed, &r)
		if err != nil {
			t.Fatal(err)
		}
		if v == installed {
			continue
		}
		// The writer commits version g with rewriteSpec(g).
		if want := rewriteSpec(v); !sameSpec(r.Spec, want) {
			t.Fatalf("v%d read as %+v, committed %+v", v, r.Spec, want)
		}
		installed = v
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if installed < 2 {
		t.Fatal("the reader never saw a rewrite")
	}
}

// TestFlowReaderStaysSmall: a directory stuffed with stray files must not
// leave its listing behind in the reader that walked it.
func TestFlowReaderStaysSmall(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	flow := FlowPath("sw1", "f1")
	if _, err := WriteFlow(p, flow, rewriteSpec(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := p.WriteString(vfs.Join(flow, fmt.Sprintf("stray%03d", i)), "x"); err != nil {
			t.Fatal(err)
		}
	}
	var r FlowReader
	if v, err := readFlowTx(t, y, flow, 0, &r); err != nil || v != 1 || !sameSpec(r.Spec, rewriteSpec(2)) {
		t.Fatalf("stuffed flow: v%d %v %+v", v, err, r.Spec)
	}
	if c := cap(r.tree.Files); c > flowFilesKeep {
		t.Fatalf("reader kept a %d-entry listing, bound %d", c, flowFilesKeep)
	}
}
