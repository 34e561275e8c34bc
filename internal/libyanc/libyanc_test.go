package libyanc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

func newY(t *testing.T) *yancfs.FS {
	t.Helper()
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func TestPutFlowMatchesFileIOLayout(t *testing.T) {
	// The fastpath — both PutFlowTx under a caller's own transaction and
	// the submission ring over it — must produce exactly the layout
	// WriteFlow produces.
	yFast, ySlow, yRing := newY(t), newY(t), newY(t)
	for _, y := range []*yancfs.FS{yFast, ySlow, yRing} {
		if _, err := yancfs.CreateSwitch(y.Root(), "/", "sw1"); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=22,nw_src=10.0.0.0/8")
	actions, _ := openflow.ParseActions("set_nw_tos=8,out=3")
	spec := yancfs.FlowSpec{Match: m, Priority: 77, IdleTimeout: 5, HardTimeout: 50, Cookie: 9, Actions: actions}

	var v uint64
	err := yFast.VFS().WithTx(func(tx *vfs.Tx) (err error) {
		v, err = yancfs.PutFlowTx(tx, "/switches/sw1/flows/ssh", spec)
		return err
	})
	if err != nil || v != 1 {
		t.Fatalf("PutFlowTx = %d %v", v, err)
	}
	if _, err := yancfs.WriteFlow(ySlow.Root(), "/switches/sw1/flows/ssh", spec); err != nil {
		t.Fatal(err)
	}
	r := New(yRing).NewFlowRing(RingConfig{})
	if err := r.Submit(SQE{Op: OpPut, Path: "/switches/sw1/flows/ssh", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var fast, slow, ring []string
	collect := func(y *yancfs.FS, out *[]string) {
		_ = y.Root().Walk("/switches/sw1/flows/ssh", func(path string, st vfs.Stat) error {
			line := path
			if st.Kind == vfs.KindFile {
				b, _ := y.Root().ReadFile(path)
				line += "=" + string(b)
			}
			*out = append(*out, line)
			return nil
		})
	}
	collect(yFast, &fast)
	collect(ySlow, &slow)
	collect(yRing, &ring)
	if len(fast) != len(slow) || len(ring) != len(slow) {
		t.Fatalf("layouts differ:\nfast %v\nslow %v\nring %v", fast, slow, ring)
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Errorf("entry %d: fast %q slow %q", i, fast[i], slow[i])
		}
		if ring[i] != slow[i] {
			t.Errorf("entry %d: ring %q slow %q", i, ring[i], slow[i])
		}
	}
	// Both round-trip to the same spec.
	sf, err := yancfs.ReadFlow(yFast.Root(), "/switches/sw1/flows/ssh")
	if err != nil {
		t.Fatal(err)
	}
	if !sf.Match.Equal(spec.Match) || sf.Priority != 77 || sf.Cookie != 9 {
		t.Errorf("fast read back = %+v", sf)
	}

	// Non-root: a flow uid 1000 puts through its own Proc's transaction
	// has the layout, modes and ownership of the one its WriteFlow makes.
	alice := vfs.Cred{UID: 1000, GID: 1000}
	yUser, ySlowUser := newY(t), newY(t)
	for _, y := range []*yancfs.FS{yUser, ySlowUser} {
		if _, err := yancfs.CreateSwitch(y.Root(), "/", "sw1"); err != nil {
			t.Fatal(err)
		}
		if err := y.Root().Chown("/switches/sw1/flows", alice.UID, alice.GID); err != nil {
			t.Fatal(err)
		}
	}
	err = yUser.Proc(alice).WithTx(func(tx *vfs.Tx) (err error) {
		v, err = yancfs.PutFlowTx(tx, "/switches/sw1/flows/ssh", spec)
		return err
	})
	if err != nil || v != 1 {
		t.Fatalf("uid 1000 PutFlowTx = %d %v", v, err)
	}
	if _, err := yancfs.WriteFlow(ySlowUser.Proc(alice), "/switches/sw1/flows/ssh", spec); err != nil {
		t.Fatal(err)
	}
	var user, slowUser []string
	owned := func(y *yancfs.FS, out *[]string) {
		_ = y.Root().Walk("/switches/sw1/flows/ssh", func(path string, st vfs.Stat) error {
			line := fmt.Sprintf("%s %v %o %d:%d", path, st.Kind, st.Mode, st.UID, st.GID)
			if st.Kind == vfs.KindFile {
				b, _ := y.Root().ReadFile(path)
				line += "=" + string(b)
			}
			*out = append(*out, line)
			return nil
		})
	}
	owned(yUser, &user)
	owned(ySlowUser, &slowUser)
	if fmt.Sprint(user) != fmt.Sprint(slowUser) {
		t.Errorf("uid 1000 layouts differ:\nPutFlowTx %q\nWriteFlow %q", user, slowUser)
	}
	if len(user) != len(slow) || !strings.Contains(user[0], " 1000:1000") {
		t.Errorf("uid 1000 flow = %q", user)
	}
}

func TestPutFlowRewriteClearsStaleFields(t *testing.T) {
	y := newY(t)
	if _, err := yancfs.CreateSwitch(y.Root(), "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	r := New(y).NewFlowRing(RingConfig{})
	defer r.Close()
	// put pushes one flow through the ring and returns its commit CQE.
	put := func(spec yancfs.FlowSpec) (uint64, error) {
		if err := r.Submit(SQE{Op: OpPut, Path: "/switches/sw1/flows/f", Spec: spec}); err != nil {
			return 0, err
		}
		e, _ := r.Reap(true)
		return e.Version, e.Err
	}
	m1, _ := openflow.ParseMatch("tp_dst=22,dl_type=0x0800,nw_proto=6")
	if _, err := put(yancfs.FlowSpec{Match: m1, Priority: 1, Actions: []openflow.Action{openflow.Output(1)}}); err != nil {
		t.Fatal(err)
	}
	m2, _ := openflow.ParseMatch("in_port=4")
	v, err := put(yancfs.FlowSpec{Match: m2, Priority: 2, Actions: []openflow.Action{openflow.Output(2)}})
	if err != nil || v != 2 {
		t.Fatalf("rewrite = %d %v", v, err)
	}
	p := y.Root()
	if p.Exists("/switches/sw1/flows/f/match.tp_dst") {
		t.Error("stale match file survived")
	}
	got, err := yancfs.ReadFlow(p, "/switches/sw1/flows/f")
	if err != nil || !got.Match.Equal(m2) {
		t.Errorf("read back = %+v %v", got, err)
	}
}

func TestBatchCommitAtomicity(t *testing.T) {
	y := newY(t)
	p := y.Root()
	for _, sw := range []string{"sw1", "sw2", "sw3"} {
		if _, err := yancfs.CreateSwitch(p, "/", sw); err != nil {
			t.Fatal(err)
		}
	}
	// A watcher must observe the whole batch in one event flush: no
	// interleaved observation point where only part of the batch exists.
	w, err := p.AddWatch("/switches", vfs.OpWrite, vfs.Recursive(), vfs.BufferSize(8192))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// The drainer starts only once all 15 entries are queued, so they
	// are one batch: one transaction, one flush.
	r := newStalledRing(y, 16)
	m, _ := openflow.ParseMatch("dl_type=0x0800")
	for _, sw := range []string{"sw1", "sw2", "sw3"} {
		for i := 0; i < 5; i++ {
			if err := r.Submit(SQE{Op: OpPut, Path: "/switches/" + sw + "/flows/f" + string(rune('0'+i)),
				Spec: yancfs.FlowSpec{Match: m, Priority: uint16(i), Actions: []openflow.Action{openflow.Output(1)}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := r.Stats().SQLen; n != 15 {
		t.Fatalf("batch len = %d", n)
	}
	go r.drainer(16)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if d := r.Stats().Drains; d != 1 {
		t.Fatalf("15 queued entries took %d transactions, want 1", d)
	}
	for _, sw := range []string{"sw1", "sw2", "sw3"} {
		names, err := yancfs.ListFlows(p, "/switches/"+sw)
		if err != nil || len(names) != 5 {
			t.Fatalf("%s flows = %v %v", sw, names, err)
		}
	}
	// All 15 version writes arrive.
	versions := 0
	deadline := time.After(time.Second)
	for versions < 15 {
		select {
		case ev := <-w.C:
			if vfs.Base(ev.Path) == "version" {
				versions++
			}
		case <-deadline:
			t.Fatalf("saw %d version writes", versions)
		}
	}
}

func TestBatchOpCountAdvantage(t *testing.T) {
	// The whole point of libyanc: the ring's batched commits must cost
	// dramatically fewer counted VFS calls than per-field file I/O (§8.1).
	yFast, ySlow := newY(t), newY(t)
	m, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=22")
	spec := yancfs.FlowSpec{Match: m, Priority: 1, Actions: []openflow.Action{openflow.Output(1)}}
	const flows = 50

	for _, y := range []*yancfs.FS{yFast, ySlow} {
		if _, err := yancfs.CreateSwitch(y.Root(), "/", "sw1"); err != nil {
			t.Fatal(err)
		}
	}
	slowBase := ySlow.VFS().Stats().Total()
	for i := 0; i < flows; i++ {
		if _, err := yancfs.WriteFlow(ySlow.Root(), "/switches/sw1/flows/f"+itoa(i), spec); err != nil {
			t.Fatal(err)
		}
	}
	slowOps := ySlow.VFS().Stats().Total() - slowBase

	fastBase := yFast.VFS().Stats().Total()
	r := New(yFast).NewFlowRing(RingConfig{})
	for i := 0; i < flows; i++ {
		if err := r.Submit(SQE{Op: OpPut, Path: "/switches/sw1/flows/f" + itoa(i), Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	fastOps := yFast.VFS().Stats().Total() - fastBase

	if fastOps*10 > slowOps {
		t.Errorf("fastpath not ≥10x cheaper: fast=%d slow=%d counted ops", fastOps, slowOps)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
