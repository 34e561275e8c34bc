package driver

import (
	"net"
	"testing"
	"time"

	"yanc/internal/openflow"
	"yanc/internal/switchsim"
	"yanc/internal/yancfs"
)

// TestServeAcceptsTCPSwitches exercises the listener path used by yancd.
func TestServeAcceptsTCPSwitches(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	d := New(y)
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(ln) }()

	n := switchsim.NewNetwork()
	n.AddSwitch(7, "sw7", openflow.Version10, 2)
	go func() { _ = n.Switch(7).Dial(ln.Addr().String()) }()

	p := y.Root()
	eventually(t, "switch dir over TCP", func() bool { return p.IsDir("/switches/sw7") })
	// The directory appears during populate, slightly before the driver
	// registers the connection; wait for registration.
	eventually(t, "registration", func() bool { return d.Lookup("sw7") != nil })
	if sc := d.Lookup("sw7"); sc.Name != "sw7" {
		t.Fatalf("Lookup = %+v", sc)
	}
	if sc := d.Lookup("ghost"); sc != nil {
		t.Fatal("phantom lookup")
	}
	// Closing the listener ends Serve cleanly.
	ln.Close()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not return")
	}
}

// TestFlowDirRenameKeepsHardwareEntry: renaming a flow directory must not
// disturb the installed entry, and later edits under the new name apply.
func TestFlowDirRenameKeepsHardwareEntry(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	p := r.y.Root()
	m, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/old-name", yancfs.FlowSpec{
		Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	sw := r.net.Switch(1)
	eventually(t, "install", func() bool { return sw.FlowCount() == 1 })
	mods := sw.FlowModCount()
	if err := p.Rename("/switches/sw1/flows/old-name", "/switches/sw1/flows/new-name"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if sw.FlowCount() != 1 {
		t.Fatalf("rename disturbed hardware: %d entries", sw.FlowCount())
	}
	if sw.FlowModCount() != mods {
		t.Fatalf("rename sent %d extra flow-mods", sw.FlowModCount()-mods)
	}
	// Deleting under the new name removes the hardware entry: the pushed
	// state followed the rename.
	if err := p.Remove("/switches/sw1/flows/new-name"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "delete after rename", func() bool { return sw.FlowCount() == 0 })
}

// TestFlowDirRenamedAcrossSwitches: a flow directory renamed from one
// switch's flows/ into another's leaves the first switch's table and
// reaches the second's, and one renamed into flows/ from outside, or out
// of it, is installed or retired — at the rename, with no overflow or
// reattach to make it so.
func TestFlowDirRenamedAcrossSwitches(t *testing.T) {
	r := newRig(t, openflow.Version10, 2)
	r.attach(t, 1)
	r.attach(t, 2)
	p := r.y.Root()
	m, _ := openflow.ParseMatch("in_port=1")
	spec := yancfs.FlowSpec{Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)}}
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", spec); err != nil {
		t.Fatal(err)
	}
	sw1, sw2 := r.net.Switch(1), r.net.Switch(2)
	eventually(t, "install on sw1", func() bool { return sw1.FlowCount() == 1 })
	if err := p.Rename("/switches/sw1/flows/f", "/switches/sw2/flows/f"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the flow moved from sw1 to sw2", func() bool { return sw1.FlowCount() == 0 && sw2.FlowCount() == 1 })

	if err := p.Mkdir("/staging", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := yancfs.WriteFlow(p, "/staging/g", spec); err != nil {
		t.Fatal(err)
	}
	if err := p.Rename("/staging/g", "/switches/sw1/flows/g"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "a flow renamed into sw1's flows/ installed", func() bool { return sw1.FlowCount() == 1 })
	if err := p.Rename("/switches/sw2/flows/f", "/staging/f"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "a flow renamed out of sw2's flows/ retired", func() bool { return sw2.FlowCount() == 0 })
}

// TestPacketOutSpecEdgeCases covers the control-file parser's error and
// option paths.
func TestPacketOutSpecEdgeCases(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	h2 := switchsim.NewHost("h2", switchsim.HostAddr(2))
	_ = r.net.AttachHost(h2, 1, 2)
	r.attach(t, 1)
	p := r.y.Root()
	frame := make([]byte, 20)
	for i := range frame {
		frame[i] = byte(i)
	}
	write := func(spec string) error {
		return p.WriteFile("/switches/sw1/packet_out", append([]byte(spec+"\n"), frame...), 0o644)
	}
	// in_port and explicit numeric out port.
	if err := write("out=2 in_port=1"); err != nil {
		t.Fatal(err)
	}
	if !h2.WaitFor(func(f [][]byte) bool { return len(f) == 1 }, time.Second) {
		t.Fatal("packet-out with in_port not delivered")
	}
	// Missing action rejected.
	if err := write("in_port=1"); err == nil {
		t.Error("no-action spec accepted")
	}
	// Bad tokens rejected.
	for _, bad := range []string{"out", "in_port=abc", "buffer_id=zz", "bogus=1"} {
		if err := write(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// Unknown buffer id falls back to inline data.
	if err := write("out=2 buffer_id=424242"); err != nil {
		t.Fatal(err)
	}
	if !h2.WaitFor(func(f [][]byte) bool { return len(f) == 2 }, time.Second) {
		t.Fatal("packet-out with stale buffer not delivered inline")
	}
}

// TestStatusFileTracksLiveness: the status file reflects the control
// channel's state across disconnect and reconnect.
func TestStatusFileTracksLiveness(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	sc := r.attach(t, 1)
	p := r.y.Root()
	eventually(t, "connected status", func() bool {
		s, _ := p.ReadString("/switches/sw1/status")
		return s == "connected"
	})
	sc.stop()
	<-sc.Done()
	eventually(t, "disconnected status", func() bool {
		s, _ := p.ReadString("/switches/sw1/status")
		return s == "disconnected"
	})
	// The directory itself — and its flows — survive for resync.
	if !p.IsDir("/switches/sw1/flows") {
		t.Fatal("switch state vanished on disconnect")
	}
	r.attach(t, 1)
	eventually(t, "reconnected status", func() bool {
		s, _ := p.ReadString("/switches/sw1/status")
		return s == "connected"
	})
}

// TestCounterQueryOnDeadConnection: synthetic counter reads fail soft
// (return zero) when the switch is gone, instead of wedging the fs.
func TestCounterQueryOnDeadConnection(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	sc := r.attach(t, 1)
	p := r.y.Root()
	m, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "install", func() bool { return r.net.Switch(1).FlowCount() == 1 })
	sc.stop()
	<-sc.Done()
	// The read returns promptly with a zero value rather than hanging.
	start := time.Now()
	s, err := p.ReadString("/switches/sw1/flows/f/counters/packets")
	if err != nil || s != "0" {
		t.Fatalf("dead counter read = %q %v", s, err)
	}
	if time.Since(start) > statsTimeout+time.Second {
		t.Fatal("counter read hung past the stats timeout")
	}
}
