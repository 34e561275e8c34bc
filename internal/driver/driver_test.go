package driver

import (
	"net"
	"testing"
	"time"

	"yanc/internal/openflow"
	"yanc/internal/switchsim"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// rig is a full controller-to-dataplane test setup: a yanc fs, a driver,
// and a simulated network whose switches are attached over net.Pipe.
type rig struct {
	y      *yancfs.FS
	d      *Driver
	net    *switchsim.Network
	conns  map[uint64]*SwitchConn
	serves map[uint64]chan error
}

func newRig(t *testing.T, version uint8, numSwitches int) *rig {
	t.Helper()
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		y:      y,
		d:      New(y),
		net:    switchsim.NewNetwork(),
		conns:  make(map[uint64]*SwitchConn),
		serves: make(map[uint64]chan error),
	}
	for i := 1; i <= numSwitches; i++ {
		r.net.AddSwitch(uint64(i), nameFor(uint64(i)), version, 4)
	}
	t.Cleanup(r.d.Close)
	return r
}

func nameFor(dpid uint64) string { return New(nil).NameFor(dpid) }

// attach connects one simulated switch to the driver.
func (r *rig) attach(t *testing.T, dpid uint64) *SwitchConn {
	t.Helper()
	sw := r.net.Switch(dpid)
	a, b := net.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- sw.ServeController(b) }()
	sc, err := r.d.Attach(a)
	if err != nil {
		t.Fatalf("attach sw%d: %v", dpid, err)
	}
	r.conns[dpid] = sc
	r.serves[dpid] = serveErr
	return sc
}

// eventually polls cond for up to a second.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAttachPopulatesSwitchDirectory(t *testing.T) {
	for _, version := range []uint8{openflow.Version10, openflow.Version13} {
		r := newRig(t, version, 1)
		r.attach(t, 1)
		p := r.y.Root()
		if !p.IsDir("/switches/sw1") {
			t.Fatal("switch dir missing")
		}
		id, err := yancfs.SwitchID(p, "/switches/sw1")
		if err != nil || id != 1 {
			t.Fatalf("id = %d %v", id, err)
		}
		want := "openflow10"
		if version == openflow.Version13 {
			want = "openflow13"
		}
		if s, _ := p.ReadString("/switches/sw1/protocol"); s != want {
			t.Errorf("protocol = %q want %q", s, want)
		}
		ports, err := yancfs.ListPorts(p, "/switches/sw1")
		if err != nil || len(ports) != 4 {
			t.Fatalf("ports = %v %v", ports, err)
		}
		if s, _ := p.ReadString("/switches/sw1/ports/2/name"); s != "sw1-eth2" {
			t.Errorf("port name = %q", s)
		}
	}
}

func TestFlowCommitReachesHardware(t *testing.T) {
	for _, version := range []uint8{openflow.Version10, openflow.Version13} {
		r := newRig(t, version, 1)
		h1 := switchsim.NewHost("h1", switchsim.HostAddr(1))
		h2 := switchsim.NewHost("h2", switchsim.HostAddr(2))
		_ = r.net.AttachHost(h1, 1, 1)
		_ = r.net.AttachHost(h2, 1, 2)
		r.attach(t, 1)
		p := r.y.Root()
		m, _ := openflow.ParseMatch("in_port=1")
		// The static-flow-pusher path: write files, bump version.
		if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/fwd", yancfs.FlowSpec{
			Match:    m,
			Priority: 10,
			Actions:  []openflow.Action{openflow.Output(2)},
		}); err != nil {
			t.Fatal(err)
		}
		sw := r.net.Switch(1)
		eventually(t, "flow install", func() bool { return sw.FlowCount() == 1 })
		h1.Ping(h2, 1)
		if !h2.WaitFor(func(f [][]byte) bool { return len(f) > 0 }, time.Second) {
			t.Fatalf("v%d: dataplane did not forward", version)
		}
	}
}

func TestUncommittedFlowStaysOffHardware(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	p := r.y.Root()
	if err := p.Mkdir("/switches/sw1/flows/staged", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/switches/sw1/flows/staged/match.in_port", "1\n"); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/switches/sw1/flows/staged/action.out", "2\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := r.net.Switch(1).FlowCount(); n != 0 {
		t.Fatalf("uncommitted flow reached hardware (%d entries)", n)
	}
	// Commit; now it lands.
	if _, err := yancfs.CommitFlow(p, "/switches/sw1/flows/staged"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "post-commit install", func() bool { return r.net.Switch(1).FlowCount() == 1 })
}

func TestFlowDirRemovalDeletesHardwareEntry(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	p := r.y.Root()
	m, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	sw := r.net.Switch(1)
	eventually(t, "install", func() bool { return sw.FlowCount() == 1 })
	if err := p.Remove("/switches/sw1/flows/f"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "delete", func() bool { return sw.FlowCount() == 0 })
}

func TestFlowEditChangesIdentity(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	p := r.y.Root()
	m1, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m1, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	sw := r.net.Switch(1)
	eventually(t, "install", func() bool { return sw.FlowCount() == 1 })
	// Rewrite with a different match: hardware must end up with exactly
	// one entry, the new one.
	m2, _ := openflow.ParseMatch("in_port=3")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m2, Priority: 7, Actions: []openflow.Action{openflow.Output(4)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "replace", func() bool {
		stats := sw.FlowStats(openflow.Match{})
		return len(stats) == 1 && stats[0].Priority == 7 && stats[0].Match.Equal(m2)
	})
}

func TestPacketInLandsInEventBuffers(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	h1 := switchsim.NewHost("h1", switchsim.HostAddr(1))
	h2 := switchsim.NewHost("h2", switchsim.HostAddr(2))
	_ = r.net.AttachHost(h1, 1, 1)
	_ = r.net.AttachHost(h2, 1, 2)
	p := r.y.Root()
	buf, w, err := yancfs.Subscribe(p, "/", "router")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r.attach(t, 1)
	h1.Ping(h2, 9) // table miss
	eventually(t, "packet-in event", func() bool {
		msgs, _ := yancfs.PendingEvents(p, buf)
		return len(msgs) == 1
	})
	msgs, _ := yancfs.PendingEvents(p, buf)
	ev, err := yancfs.ReadPacketIn(p, msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if ev.Switch != "sw1" || ev.InPort != 1 || ev.Reason != openflow.ReasonNoMatch {
		t.Errorf("event = %+v", ev)
	}
	if len(ev.Data) == 0 {
		t.Error("event has no frame data")
	}
}

func TestPacketOutControlFile(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	h2 := switchsim.NewHost("h2", switchsim.HostAddr(2))
	_ = r.net.AttachHost(h2, 1, 2)
	r.attach(t, 1)
	p := r.y.Root()
	frame := []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 1, 2, 3, 4, 5, 6, 0x08, 0x00, 9, 9}
	payload := append([]byte("out=2\n"), frame...)
	if err := p.WriteFile("/switches/sw1/packet_out", payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if !h2.WaitFor(func(f [][]byte) bool { return len(f) == 1 }, time.Second) {
		t.Fatal("packet-out not delivered")
	}
	got := h2.Received()[0]
	if string(got) != string(frame) {
		t.Errorf("frame = %x want %x", got, frame)
	}
	// Bad spec is rejected at close time.
	if err := p.WriteFile("/switches/sw1/packet_out", []byte("nonsense\nxx"), 0o644); err == nil {
		t.Error("bad packet_out spec must fail")
	}
}

func TestPortDownFileReachesSwitchAndBack(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	p := r.y.Root()
	// Administrator brings port 2 down via the file system (§3.1).
	if err := p.WriteString("/switches/sw1/ports/2/config.port_down", "1\n"); err != nil {
		t.Fatal(err)
	}
	sw := r.net.Switch(1)
	eventually(t, "hardware port down", func() bool {
		pc, ok := sw.PortCounters(2)
		return ok && pc.Config&openflow.PortConfigDown != 0
	})
	// The switch's port-status notification reflects back into the
	// status file.
	eventually(t, "status file update", func() bool {
		s, _ := p.ReadString("/switches/sw1/ports/2/config.port_status")
		return s == "down"
	})
	// And back up.
	if err := p.WriteString("/switches/sw1/ports/2/config.port_down", "0\n"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "hardware port up", func() bool {
		pc, ok := sw.PortCounters(2)
		return ok && pc.Config&openflow.PortConfigDown == 0
	})
}

func TestLiveCountersThroughFS(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	h1 := switchsim.NewHost("h1", switchsim.HostAddr(1))
	h2 := switchsim.NewHost("h2", switchsim.HostAddr(2))
	_ = r.net.AttachHost(h1, 1, 1)
	_ = r.net.AttachHost(h2, 1, 2)
	r.attach(t, 1)
	p := r.y.Root()
	m, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "install", func() bool { return r.net.Switch(1).FlowCount() == 1 })
	for i := 0; i < 3; i++ {
		h1.Ping(h2, uint16(i))
	}
	// cat flows/f/counters/packets pulls live hardware counters.
	eventually(t, "flow counters", func() bool {
		s, err := p.ReadString("/switches/sw1/flows/f/counters/packets")
		return err == nil && s == "3"
	})
	eventually(t, "port counters", func() bool {
		s, err := p.ReadString("/switches/sw1/ports/1/counters/rx_packets")
		return err == nil && s == "3"
	})
}

// TestRenamedFlowKeepsLiveCounters: mv flows/f flows/g moves the driver's
// installed-state entry to the new name, and the counter files under the
// new name must ask for that name. They work it out from the path they
// are opened through; a name captured when the directory was made would
// read 0 for ever while the hardware entry counts on.
func TestRenamedFlowKeepsLiveCounters(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	h1 := switchsim.NewHost("h1", switchsim.HostAddr(1))
	h2 := switchsim.NewHost("h2", switchsim.HostAddr(2))
	_ = r.net.AttachHost(h1, 1, 1)
	_ = r.net.AttachHost(h2, 1, 2)
	sc := r.attach(t, 1)
	p := r.y.Root()
	m, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "install", func() bool { return r.net.Switch(1).FlowCount() == 1 })
	for i := 0; i < 3; i++ {
		h1.Ping(h2, uint16(i))
	}
	eventually(t, "flow counters", func() bool {
		s, err := p.ReadString("/switches/sw1/flows/f/counters/packets")
		return err == nil && s == "3"
	})
	if err := p.Rename("/switches/sw1/flows/f", "/switches/sw1/flows/g"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the installed-state entry to follow the rename", func() bool {
		_, _, old := sc.FlowCounters("f")
		_, _, moved := sc.FlowCounters("g")
		return moved && !old
	})
	if s, err := p.ReadString("/switches/sw1/flows/g/counters/packets"); err != nil || s != "3" {
		t.Fatalf("packets under the new name = %q, %v; want 3", s, err)
	}
	if s, err := p.ReadString("/switches/sw1/flows/g/counters/bytes"); err != nil || s == "0" {
		t.Fatalf("bytes under the new name = %q, %v", s, err)
	}
}

func TestLiveProtocolUpgrade(t *testing.T) {
	// §4.1: "Nodes in such a system can therefore be gradually upgraded,
	// live, to newer protocols." The switch reconnects speaking OF 1.3;
	// the committed flows survive in the fs and are re-pushed.
	r := newRig(t, openflow.Version10, 1)
	sc := r.attach(t, 1)
	p := r.y.Root()
	m, _ := openflow.ParseMatch("in_port=1,dl_type=0x0800,nw_dst=10.0.0.0/24")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "install", func() bool { return r.net.Switch(1).FlowCount() == 1 })
	if s, _ := p.ReadString("/switches/sw1/protocol"); s != "openflow10" {
		t.Fatalf("protocol = %q", s)
	}
	// Upgrade: tear down, replace with an OF 1.3 datapath (same dpid,
	// fresh tables — firmware upgrade wipes them).
	sc.stop()
	<-sc.Done()
	r.net = func() *switchsim.Network {
		n := switchsim.NewNetwork()
		n.AddSwitch(1, "sw1", openflow.Version13, 4)
		return n
	}()
	r.attach(t, 1)
	if s, _ := p.ReadString("/switches/sw1/protocol"); s != "openflow13" {
		t.Fatalf("upgraded protocol = %q", s)
	}
	// The driver re-pushed the committed flow over the new protocol.
	eventually(t, "re-push after upgrade", func() bool {
		stats := r.net.Switch(1).FlowStats(openflow.Match{})
		return len(stats) == 1 && stats[0].Match.Equal(m)
	})
}

func TestMixedVersionNetwork(t *testing.T) {
	// One driver, two switches, two protocol versions simultaneously.
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	d := New(y)
	defer d.Close()
	n := switchsim.NewNetwork()
	n.AddSwitch(1, "sw1", openflow.Version10, 2)
	n.AddSwitch(2, "sw2", openflow.Version13, 2)
	for dpid := uint64(1); dpid <= 2; dpid++ {
		a, b := net.Pipe()
		sw := n.Switch(dpid)
		go func() { _ = sw.ServeController(b) }()
		if _, err := d.Attach(a); err != nil {
			t.Fatal(err)
		}
	}
	p := y.Root()
	if s, _ := p.ReadString("/switches/sw1/protocol"); s != "openflow10" {
		t.Errorf("sw1 protocol = %q", s)
	}
	if s, _ := p.ReadString("/switches/sw2/protocol"); s != "openflow13" {
		t.Errorf("sw2 protocol = %q", s)
	}
	// The same file write works against both.
	m, _ := openflow.ParseMatch("dl_type=0x0800,tp_dst=80,nw_proto=6")
	for _, sw := range []string{"sw1", "sw2"} {
		if _, err := yancfs.WriteFlow(p, "/switches/"+sw+"/flows/web", yancfs.FlowSpec{
			Match: m, Priority: 9, Actions: []openflow.Action{openflow.Output(1)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "both installed", func() bool {
		return n.Switch(1).FlowCount() == 1 && n.Switch(2).FlowCount() == 1
	})
	for dpid := uint64(1); dpid <= 2; dpid++ {
		stats := n.Switch(dpid).FlowStats(openflow.Match{})
		if len(stats) != 1 || !stats[0].Match.Equal(m) {
			t.Errorf("sw%d stats = %+v", dpid, stats)
		}
	}
}

func TestHardwareExpiryRemovesFlowDir(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	p := r.y.Root()
	sw := r.net.Switch(1)
	clock := time.Now()
	sw.SetClock(func() time.Time { return clock })
	m, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m, Priority: 5, IdleTimeout: 1, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "install", func() bool { return sw.FlowCount() == 1 })
	clock = clock.Add(5 * time.Second)
	sw.Tick(clock)
	eventually(t, "fs reflects expiry", func() bool {
		return !p.Exists("/switches/sw1/flows/f")
	})
}

func TestWatchEscalationOnOverflowResyncs(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	p := r.y.Root()
	// Hammer commits; even if the driver's watch overflows, the final
	// state must converge to all flows installed.
	for i := 0; i < 50; i++ {
		m, _ := openflow.ParseMatch("tp_dst=" + itoa(2000+i) + ",dl_type=0x0800,nw_proto=6")
		if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f"+itoa(i), yancfs.FlowSpec{
			Match: m, Priority: uint16(i), Actions: []openflow.Action{openflow.Output(2)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "all 50 installed", func() bool { return r.net.Switch(1).FlowCount() == 50 })
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

func TestDriverPermissionModel(t *testing.T) {
	// Flows pushed by root are untouchable by other users, but the
	// driver (root) still syncs its own.
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	root := r.y.Root()
	alice := r.y.Proc(vfs.Cred{UID: 1000})
	m, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(root, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := alice.WriteString("/switches/sw1/flows/f/priority", "0"); err == nil {
		t.Error("alice could overwrite a root flow")
	}
	if err := alice.Remove("/switches/sw1/flows/f"); err == nil {
		t.Error("alice could remove a root flow")
	}
}
