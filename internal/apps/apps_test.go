package apps

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"yanc/internal/driver"
	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/switchsim"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// rig wires a simulated linear network to a driver over net.Pipe and
// registers the hosts in the hosts/ directory.
type rig struct {
	y     *yancfs.FS
	d     *driver.Driver
	net   *switchsim.Network
	hosts []*switchsim.Host
}

func newLinearRig(t *testing.T, k int) *rig {
	t.Helper()
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	n, hosts := switchsim.BuildLinear(k, openflow.Version10)
	r := &rig{y: y, d: driver.New(y), net: n, hosts: hosts}
	t.Cleanup(r.d.Close)
	for _, sw := range n.Switches() {
		a, b := net.Pipe()
		sw := sw
		go func() { _ = sw.ServeController(b) }()
		if _, err := r.d.Attach(a); err != nil {
			t.Fatal(err)
		}
	}
	p := y.Root()
	for i, h := range hosts {
		dpid, port := h.Attachment()
		if err := yancfs.AddHost(p, "/", h.Name, h.MAC.String(), h.IP.String(),
			fmt.Sprintf("sw%d", dpid), port); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	return r
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTopologyPathBFS(t *testing.T) {
	topo := &Topology{
		Links: map[PortRef]PortRef{
			{"a", 1}: {"b", 1}, {"b", 1}: {"a", 1},
			{"b", 2}: {"c", 1}, {"c", 1}: {"b", 2},
			{"a", 2}: {"d", 1}, {"d", 1}: {"a", 2},
			{"d", 2}: {"c", 2}, {"c", 2}: {"d", 2},
		},
		Ports: map[string][]uint32{"a": {1, 2}, "b": {1, 2}, "c": {1, 2}, "d": {1, 2}},
	}
	hops, ok := topo.Path("a", "c")
	if !ok || len(hops) != 2 {
		t.Fatalf("path = %v %v", hops, ok)
	}
	// Two equal-length routes exist; BFS with sorted ports picks via b
	// (a's port 1 sorts before port 2).
	if hops[0].sw != "a" || hops[0].outPort != 1 || hops[1].sw != "b" || hops[1].outPort != 2 {
		t.Errorf("hops = %+v", hops)
	}
	if _, ok := topo.Path("a", "zzz"); ok {
		t.Error("unreachable must fail")
	}
	if hops, ok := topo.Path("a", "a"); !ok || len(hops) != 0 {
		t.Error("self path must be empty")
	}
	if got := topo.Switches(); strings.Join(got, "") != "abcd" {
		t.Errorf("switches = %v", got)
	}
}

func TestTopodDiscoversLinearTopology(t *testing.T) {
	r := newLinearRig(t, 3)
	td := NewTopod(r.y.Root(), "/")
	if err := td.DiscoverOnce(); err != nil {
		t.Fatal(err)
	}
	topo, err := LoadTopology(r.y.Root(), "/")
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth from the fabric: sw_i port3 <-> sw_{i+1} port2.
	want := map[PortRef]PortRef{
		{"sw1", 3}: {"sw2", 2}, {"sw2", 2}: {"sw1", 3},
		{"sw2", 3}: {"sw3", 2}, {"sw3", 2}: {"sw2", 3},
	}
	if len(topo.Links) != len(want) {
		t.Fatalf("links = %v", topo.Links)
	}
	for a, b := range want {
		if topo.Links[a] != b {
			t.Errorf("link %v = %v, want %v", a, topo.Links[a], b)
		}
	}
	// The symlinks themselves are the representation (§3.3).
	tgt, err := r.y.Root().Readlink("/switches/sw1/ports/3/peer")
	if err != nil || !strings.HasSuffix(tgt, "/switches/sw2/ports/2") {
		t.Errorf("peer symlink = %q %v", tgt, err)
	}
	td.Stop()
}

func TestRouterReactivePathSetup(t *testing.T) {
	r := newLinearRig(t, 3)
	td := NewTopod(r.y.Root(), "/")
	if err := td.DiscoverOnce(); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(r.y.Root(), "/")
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	h1, h3 := r.hosts[0], r.hosts[2]
	h3.ClearReceived() // discard topod's LLDP probes
	h1.Ping(h3, 1)
	// The router sets up the path and the packet arrives (possibly after
	// a second miss downstream while flow-mods are in flight — the same
	// eventual convergence real reactive controllers exhibit).
	if !h3.WaitFor(func([][]byte) bool { return h3.ReceivedPing(1) }, 2*time.Second) {
		t.Fatal("first packet never arrived")
	}
	installs, _ := rt.Stats()
	if installs < 1 {
		t.Errorf("installs = %d", installs)
	}
	// Path flows exist on every switch along the way (plus topod's LLDP
	// flow).
	eventually(t, "path flows", func() bool {
		for dpid := uint64(1); dpid <= 3; dpid++ {
			if r.net.Switch(dpid).FlowCount() < 2 {
				return false
			}
		}
		return true
	})
	// Second packet of the same flow is hardware-forwarded: no new
	// packet-in, no new install.
	installsBefore, _ := rt.Stats()
	h1.Ping(h3, 2)
	if !h3.WaitFor(func([][]byte) bool { return h3.ReceivedPing(2) }, 2*time.Second) {
		t.Fatal("second packet never arrived")
	}
	installs2, _ := rt.Stats()
	if installs2 != installsBefore {
		t.Errorf("second packet caused %d new installs", installs2-installsBefore)
	}
}

// TestRouterPathIsOneCommit: the router commits a path in one
// transaction. Every miss here is a new TCP flow from h1 to h3, so every
// path ends on sw3. A watch on the version files is delivered a hop's
// commit only once every hop of its path is committed, and a ReadTx
// polling beside the misses never finds a path's flow on one switch
// committed while its sw3 flow is not.
func TestRouterPathIsOneCommit(t *testing.T) {
	r := newLinearRig(t, 3)
	if err := NewTopod(r.y.Root(), "/").DiscoverOnce(); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(r.y.Root(), "/")
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	fs := r.y.VFS()
	w, err := r.y.Root().AddWatch(yancfs.DirSwitches, vfs.OpWrite, vfs.Recursive(),
		vfs.Files(yancfs.FileVersion), vfs.BufferSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// torn returns the first path flow it finds committed on some switch
	// while its sw3 flow is not, or "".
	torn := func(tx *vfs.Tx) string {
		committed := func(sw, name string) bool {
			v, err := tx.ReadFile(yancfs.FlowPath(sw, name) + "/" + yancfs.FileVersion)
			return err == nil && string(v) != "0\n"
		}
		for _, sw := range []string{"sw1", "sw2"} {
			it, err := tx.OpenDir(yancfs.FlowPath(sw, ""))
			if err != nil {
				return err.Error()
			}
			for e, ok := it.Next(); ok; e, ok = it.Next() {
				seq, isPath := strings.CutSuffix(e.Name, "-"+sw)
				if isPath && strings.HasPrefix(seq, "router-") && committed(sw, e.Name) && !committed("sw3", seq+"-sw3") {
					return e.Name
				}
			}
		}
		return ""
	}
	stop := make(chan struct{})
	polled := make(chan string, 1)
	go func() {
		var found string
		for polls := 0; found == ""; polls++ {
			select {
			case <-stop:
				polled <- ""
				return
			default:
			}
			_ = fs.ReadTx(func(tx *vfs.Tx) error {
				found = torn(tx)
				return nil
			})
		}
		polled <- found
	}()
	watched := make(chan []string, 1)
	go func() {
		var bad []string
		for ev := range w.C {
			if !strings.Contains(ev.Path, "/router-") {
				continue
			}
			_ = fs.ReadTx(func(tx *vfs.Tx) error {
				if name := torn(tx); name != "" {
					bad = append(bad, ev.Path+" delivered with "+name+" torn")
				}
				return nil
			})
		}
		watched <- bad
	}()

	const misses = 40
	h1, h3 := r.hosts[0], r.hosts[2]
	h3.ClearReceived()
	for i := 0; i < misses; i++ {
		h1.SendTCP(h3, uint16(10000+i), 80, []byte("x"))
	}
	eventually(t, "every flow's first packet delivered", func() bool { return len(h3.Received()) >= misses })
	close(stop)
	if name := <-polled; name != "" {
		t.Errorf("a ReadTx found %s committed without its sw3 hop", name)
	}
	fs.SyncWatches()
	w.Close()
	if bad := <-watched; len(bad) > 0 {
		t.Errorf("%d version events delivered before their path was whole, first %s", len(bad), bad[0])
	}
	if installs, _ := rt.Stats(); installs < misses {
		t.Errorf("installs = %d, want >= %d", installs, misses)
	}
}

func TestRouterFloodsUnknownDestination(t *testing.T) {
	r := newLinearRig(t, 2)
	// Remove hosts/ records so the destination is truly unknown.
	if err := r.y.Root().RemoveAll("/hosts/h2"); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(r.y.Root(), "/")
	if err := rt.EnsureSubscribed(); err != nil {
		t.Fatal(err)
	}
	h1 := r.hosts[0]
	ghost := ethernet.MACFromUint64(0xdeadbeef)
	h1.Send(ethernet.Frame{Dst: ghost, Src: h1.MAC, Type: 0x1234, Payload: []byte("x")}.Serialize())
	// The flood from sw1 re-misses at sw2 and floods again, eventually
	// reaching h2; keep draining until it does.
	eventually(t, "flood reaches h2", func() bool {
		rt.Drain()
		return r.hosts[1].RxCount() > 0
	})
	if _, floods := rt.Stats(); floods == 0 {
		t.Error("no floods recorded")
	}
}

func TestRouterLearnsOnlyAtEdgePorts(t *testing.T) {
	r := newLinearRig(t, 2)
	td := NewTopod(r.y.Root(), "/")
	if err := td.DiscoverOnce(); err != nil {
		t.Fatal(err)
	}
	td.Stop()
	// h1's location must come from its own packets, not hosts/.
	if err := r.y.Root().RemoveAll("/hosts/h1"); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(r.y.Root(), "/")
	if err := rt.EnsureSubscribed(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	h1, h2 := r.hosts[0], r.hosts[1]
	// The flood from sw1 re-misses at sw2's link port carrying h1's MAC:
	// that miss must not move h1 onto the trunk.
	h2.ClearReceived()
	ghost := ethernet.MACFromUint64(0xdeadbeef)
	h1.Send(ethernet.Frame{Dst: ghost, Src: h1.MAC, Type: 0x1234, Payload: []byte("x")}.Serialize())
	eventually(t, "flood reaches h2", func() bool {
		rt.Drain()
		return h2.RxCount() > 0
	})
	h2.Send(ethernet.Frame{Dst: h1.MAC, Src: h2.MAC, Type: 0x1234, Payload: []byte("y")}.Serialize())
	p := r.y.Root()
	eventually(t, "a router flow on sw1 toward h1's port", func() bool {
		rt.Drain()
		names, _ := yancfs.ListFlows(p, "/switches/sw1")
		for _, n := range names {
			if !strings.HasPrefix(n, "router-") {
				continue
			}
			spec, err := yancfs.ReadFlow(p, "/switches/sw1/flows/"+n)
			if err == nil && len(spec.Actions) == 1 && spec.Actions[0] == openflow.Output(1) {
				return true
			}
		}
		return false
	})
}

func TestARPdAnswersFromHostsDir(t *testing.T) {
	r := newLinearRig(t, 2)
	ad := NewARPd(r.y.Root(), "/")
	if err := ad.Start(); err != nil {
		t.Fatal(err)
	}
	defer ad.Stop()
	h1, h2 := r.hosts[0], r.hosts[1]
	h1.SendARPRequest(h2.IP)
	if !h1.WaitFor(func(frames [][]byte) bool {
		for _, raw := range frames {
			f, err := ethernet.DecodeFrame(raw)
			if err != nil || f.Type != ethernet.TypeARP {
				continue
			}
			rep, err := ethernet.DecodeARP(f.Payload)
			if err == nil && rep.Op == ethernet.ARPReply && rep.SenderHW == h2.MAC && rep.SenderIP == h2.IP {
				return true
			}
		}
		return false
	}, 2*time.Second) {
		t.Fatal("no ARP reply")
	}
	// The reply reaches the host before the daemon's counter increments;
	// poll rather than assert immediately.
	eventually(t, "reply counter", func() bool { return ad.Replies() == 1 })
}

func TestFlowPusherConfig(t *testing.T) {
	r := newLinearRig(t, 2)
	fp := NewFlowPusher(r.y.Root(), "/")
	config := `
# static flows
switch=sw1 flow=arp match=dl_type=0x0806 actions=out=flood priority=10
switch=sw2 flow=ssh match="dl_type=0x0800,nw_proto=6,tp_dst=22" actions=out=1 priority=20 idle=30 cookie=7
`
	n, err := fp.Push(config)
	if err != nil || n != 2 {
		t.Fatalf("push = %d %v", n, err)
	}
	eventually(t, "pushed flows on hardware", func() bool {
		return r.net.Switch(1).FlowCount() == 1 && r.net.Switch(2).FlowCount() == 1
	})
	spec, err := yancfs.ReadFlow(r.y.Root(), "/switches/sw2/flows/ssh")
	if err != nil || spec.Priority != 20 || spec.IdleTimeout != 30 || spec.Cookie != 7 {
		t.Errorf("spec = %+v %v", spec, err)
	}
	// Parse errors carry line numbers.
	if _, err := fp.Push("switch=sw1 flow=x match=bogus=1 actions=out=1"); err == nil {
		t.Error("bad match must fail")
	}
	if _, err := fp.Push("flow=x actions=out=1"); err == nil || !strings.Contains(err.Error(), "switch=") {
		t.Errorf("missing switch err = %v", err)
	}
	if _, err := fp.Push("switch=sw1 flow=x"); err == nil {
		t.Error("missing actions must fail")
	}
}

func TestSlicerFlowTranslation(t *testing.T) {
	r := newLinearRig(t, 2)
	filter, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=80")
	sl := NewSlicer(r.y, "/", "http", filter, []string{"sw1", "sw2"})
	if err := sl.Create(); err != nil {
		t.Fatal(err)
	}
	if err := sl.Start(); err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	p := r.y.Root()
	// The view mirrors the member switches and their ports.
	if !p.IsDir("/views/http/switches/sw1/ports/2") {
		t.Fatal("view port mirror missing")
	}
	// A flow inside the slice's header space translates to the master,
	// intersected with the filter.
	viewMatch, _ := openflow.ParseMatch("in_port=1,nw_src=10.0.0.0/24")
	if _, err := yancfs.WriteFlow(p, "/views/http/switches/sw1/flows/lb", yancfs.FlowSpec{
		Match: viewMatch, Priority: 5, Actions: []openflow.Action{openflow.Output(3)},
	}); err != nil {
		t.Fatal(err)
	}
	masterFlow := "/switches/sw1/flows/slice-http-lb"
	eventually(t, "translated flow", func() bool {
		v, err := yancfs.FlowVersion(p, masterFlow)
		return err == nil && v >= 1
	})
	spec, err := yancfs.ReadFlow(p, masterFlow)
	if err != nil {
		t.Fatal(err)
	}
	// The intersection carries both the view's and the filter's fields.
	if !spec.Match.Has(openflow.FieldTPDst) || spec.Match.TPDst != 80 ||
		!spec.Match.Has(openflow.FieldInPort) || spec.Match.InPort != 1 ||
		!spec.Match.Has(openflow.FieldNWSrc) {
		t.Errorf("intersected match = %v", spec.Match)
	}
	// And it reaches hardware.
	eventually(t, "hardware", func() bool { return r.net.Switch(1).FlowCount() == 1 })
	// A flow outside the slice is rejected with an error file.
	sshMatch, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=22")
	if _, err := yancfs.WriteFlow(p, "/views/http/switches/sw1/flows/ssh", yancfs.FlowSpec{
		Match: sshMatch, Priority: 5, Actions: []openflow.Action{openflow.Output(3)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "rejection error file", func() bool {
		return p.Exists("/views/http/switches/sw1/flows/ssh/error")
	})
	if p.Exists("/switches/sw1/flows/slice-http-ssh") {
		t.Error("disjoint flow escaped the slice")
	}
	// Deleting the view flow removes the master twin.
	if err := p.Remove("/views/http/switches/sw1/flows/lb"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "translated delete", func() bool { return !p.Exists(masterFlow) })
}

func TestSlicerEventTranslation(t *testing.T) {
	r := newLinearRig(t, 2)
	filter, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=80")
	sl := NewSlicer(r.y, "/", "http", filter, []string{"sw1"})
	if err := sl.Create(); err != nil {
		t.Fatal(err)
	}
	if err := sl.Start(); err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	p := r.y.Root()
	buf, w, err := yancfs.Subscribe(p, "/views/http", "lb-app")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// HTTP traffic from h1 misses and should surface inside the view.
	r.hosts[0].SendTCP(r.hosts[1], 1234, 80, []byte("GET /"))
	eventually(t, "view event", func() bool {
		msgs, _ := yancfs.PendingEvents(p, buf)
		return len(msgs) == 1
	})
	// SSH traffic must not.
	r.hosts[0].SendTCP(r.hosts[1], 1234, 22, []byte("ssh"))
	time.Sleep(50 * time.Millisecond)
	msgs, _ := yancfs.PendingEvents(p, buf)
	if len(msgs) != 1 {
		t.Errorf("ssh leaked into the http slice: %d msgs", len(msgs))
	}
}

func TestBigSwitchCompilation(t *testing.T) {
	r := newLinearRig(t, 3)
	td := NewTopod(r.y.Root(), "/")
	if err := td.DiscoverOnce(); err != nil {
		t.Fatal(err)
	}
	td.Stop()
	// Virtual ports: v1 = sw1 port1 (h1), v2 = sw3 port1 (h3).
	bs := NewBigSwitch(r.y, "/", "corp", map[uint32]PortRef{
		1: {Switch: "sw1", Port: 1},
		2: {Switch: "sw3", Port: 1},
	})
	if err := bs.Create(); err != nil {
		t.Fatal(err)
	}
	if err := bs.Start(); err != nil {
		t.Fatal(err)
	}
	defer bs.Stop()
	p := r.y.Root()
	if !p.IsDir("/views/corp/switches/big0/ports/1") {
		t.Fatal("virtual port missing")
	}
	if v, err := p.GetXattrString("/views/corp/switches/big0/ports/1", "user.yanc.vport.maps-to"); err != nil || v != "sw1/1" {
		t.Errorf("vport xattr = %q %v", v, err)
	}
	// One virtual flow: everything from v1 to v2.
	vm, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/views/corp/switches/big0/flows/fwd", yancfs.FlowSpec{
		Match: vm, Priority: 50, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	// Compiles into one flow per physical switch on the path.
	eventually(t, "compiled flows", func() bool {
		total := 0
		for _, sw := range []string{"sw1", "sw2", "sw3"} {
			names, _ := yancfs.ListFlows(p, "/switches/"+sw)
			for _, n := range names {
				if strings.HasPrefix(n, "vnet-corp-fwd-") {
					total++
				}
			}
		}
		return total == 3
	})
	// The dataplane actually forwards h1 -> h3 end to end.
	eventually(t, "hardware flows", func() bool {
		// 1 topod LLDP flow + 1 compiled flow per switch.
		for dpid := uint64(1); dpid <= 3; dpid++ {
			if r.net.Switch(dpid).FlowCount() < 2 {
				return false
			}
		}
		return true
	})
	r.hosts[0].Ping(r.hosts[2], 1)
	if !r.hosts[2].WaitFor(func(f [][]byte) bool { return len(f) > 0 }, 2*time.Second) {
		t.Fatal("big-switch path does not forward")
	}
	// Removing the virtual flow removes every compiled flow.
	if err := p.Remove("/views/corp/switches/big0/flows/fwd"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "compiled flows removed", func() bool {
		for _, sw := range []string{"sw1", "sw2", "sw3"} {
			names, _ := yancfs.ListFlows(p, "/switches/"+sw)
			for _, n := range names {
				if strings.HasPrefix(n, "vnet-corp-") {
					return false
				}
			}
		}
		return true
	})
}

func TestBigSwitchRejectsUnmappedPorts(t *testing.T) {
	r := newLinearRig(t, 2)
	bs := NewBigSwitch(r.y, "/", "v", map[uint32]PortRef{1: {Switch: "sw1", Port: 1}})
	if err := bs.Create(); err != nil {
		t.Fatal(err)
	}
	if err := bs.Start(); err != nil {
		t.Fatal(err)
	}
	defer bs.Stop()
	p := r.y.Root()
	vm, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/views/v/switches/big0/flows/bad", yancfs.FlowSpec{
		Match: vm, Priority: 1, Actions: []openflow.Action{openflow.Output(99)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "error file", func() bool {
		return p.Exists("/views/v/switches/big0/flows/bad/error")
	})
	// No in_port is also rejected.
	if _, err := yancfs.WriteFlow(p, "/views/v/switches/big0/flows/noport", yancfs.FlowSpec{
		Priority: 1, Actions: []openflow.Action{openflow.Output(1)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "no-in_port error", func() bool {
		return p.Exists("/views/v/switches/big0/flows/noport/error")
	})
}

func TestBigSwitchEventTranslation(t *testing.T) {
	r := newLinearRig(t, 2)
	bs := NewBigSwitch(r.y, "/", "v", map[uint32]PortRef{
		7: {Switch: "sw1", Port: 1},
	})
	if err := bs.Create(); err != nil {
		t.Fatal(err)
	}
	if err := bs.Start(); err != nil {
		t.Fatal(err)
	}
	defer bs.Stop()
	p := r.y.Root()
	buf, w, err := yancfs.Subscribe(p, "/views/v", "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Miss on the mapped port: appears in the view on virtual port 7.
	r.hosts[0].Ping(r.hosts[1], 1)
	eventually(t, "translated event", func() bool {
		msgs, _ := yancfs.PendingEvents(p, buf)
		if len(msgs) != 1 {
			return false
		}
		ev, err := yancfs.ReadPacketIn(p, msgs[0])
		return err == nil && ev.Switch == "big0" && ev.InPort == 7
	})
	// Miss on an unmapped port (h2 at sw2 port 1) stays out of the view.
	r.hosts[1].Ping(r.hosts[0], 2)
	time.Sleep(50 * time.Millisecond)
	if msgs, _ := yancfs.PendingEvents(p, buf); len(msgs) != 1 {
		t.Errorf("unmapped event leaked: %d", len(msgs))
	}
}

func TestAuditorFindings(t *testing.T) {
	r := newLinearRig(t, 1)
	p := r.y.Root()
	// A healthy flow.
	ok, _ := openflow.ParseMatch("dl_type=0x0806")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/good", yancfs.FlowSpec{
		Match: ok, Priority: 10, Actions: []openflow.Action{openflow.Output(1)},
	}); err != nil {
		t.Fatal(err)
	}
	// A drop flow (no actions).
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/blackhole", yancfs.FlowSpec{
		Match: ok, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// A staged-never-committed flow.
	if err := p.Mkdir("/switches/sw1/flows/staged", 0o755); err != nil {
		t.Fatal(err)
	}
	// A banned-port flow.
	telnet, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=23")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/telnet", yancfs.FlowSpec{
		Match: telnet, Priority: 10, Actions: []openflow.Action{openflow.Output(1)},
	}); err != nil {
		t.Fatal(err)
	}
	// A shadowed flow: wildcard at high priority covers it.
	var all openflow.Match
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/catchall", yancfs.FlowSpec{
		Match: all, Priority: 1000, Actions: []openflow.Action{openflow.Output(1)},
	}); err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(p, "/")
	a.BannedTPPorts = []uint16{23}
	findings, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	joined := strings.Join(got, "\n")
	for _, want := range []string{
		"blackhole: no actions",
		"staged: staged but never committed",
		"telnet: permits banned destination port 23",
		"shadowed by catchall",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding %q in:\n%s", want, joined)
		}
	}
	// The report file is readable with cat.
	report, err := p.ReadString("/audit-report")
	if err != nil || !strings.Contains(report, "finding(s)") {
		t.Errorf("report = %q %v", report, err)
	}
}

func TestHostLocations(t *testing.T) {
	r := newLinearRig(t, 2)
	locs, arps, err := HostLocations(r.y.Root(), "/")
	if err != nil {
		t.Fatal(err)
	}
	h1 := r.hosts[0]
	if loc, ok := locs[h1.MAC]; !ok || loc.Switch != "sw1" || loc.Port != 1 {
		t.Errorf("h1 loc = %+v %v", locs[h1.MAC], ok)
	}
	if mac, ok := arps[h1.IP]; !ok || mac != h1.MAC {
		t.Errorf("h1 arp = %v %v", mac, ok)
	}
}

func TestIntersectViaSlicerSemantics(t *testing.T) {
	// Intersect unit behaviour used by the slicer.
	a, _ := openflow.ParseMatch("nw_src=10.0.0.0/8")
	b, _ := openflow.ParseMatch("nw_src=10.1.0.0/16,tp_dst=80,dl_type=0x0800,nw_proto=6")
	got, err := openflow.Intersect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NWSrc.Bits != 16 || got.TPDst != 80 {
		t.Errorf("intersect = %v", got)
	}
	c, _ := openflow.ParseMatch("nw_src=192.168.0.0/16")
	if _, err := openflow.Intersect(a, c); err == nil {
		t.Error("disjoint prefixes must fail")
	}
	d1, _ := openflow.ParseMatch("tp_dst=22")
	d2, _ := openflow.ParseMatch("tp_dst=80")
	if _, err := openflow.Intersect(d1, d2); err == nil {
		t.Error("conflicting exact fields must fail")
	}
	var wild openflow.Match
	same, err := openflow.Intersect(wild, b)
	if err != nil || !same.Equal(b) {
		t.Errorf("wildcard intersect = %v %v", same, err)
	}
}

func TestSlicerUnknownSwitchFails(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	sl := NewSlicer(y, "/", "v", openflow.Match{}, []string{"ghost"})
	if err := sl.Create(); err == nil || !errors.Is(err, err) || !strings.Contains(err.Error(), "no switch") {
		t.Errorf("create = %v", err)
	}
}

func TestStackedViews(t *testing.T) {
	// "Views can be stacked arbitrarily" (§4.2): a big switch built over
	// a slice region.
	r := newLinearRig(t, 2)
	td := NewTopod(r.y.Root(), "/")
	if err := td.DiscoverOnce(); err != nil {
		t.Fatal(err)
	}
	td.Stop()
	filter, _ := openflow.ParseMatch("dl_type=0x0800")
	sl := NewSlicer(r.y, "/", "ip-only", filter, []string{"sw1", "sw2"})
	if err := sl.Create(); err != nil {
		t.Fatal(err)
	}
	if err := sl.Start(); err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	// The inner view lives inside the slice's region.
	bs := NewBigSwitch(r.y, "/views/ip-only", "flat", map[uint32]PortRef{
		1: {Switch: "sw1", Port: 1},
		2: {Switch: "sw2", Port: 1},
	})
	if err := bs.Create(); err != nil {
		t.Fatal(err)
	}
	if err := bs.Start(); err != nil {
		t.Fatal(err)
	}
	defer bs.Stop()
	p := r.y.Root()
	if !p.IsDir("/views/ip-only/views/flat/switches/big0") {
		t.Fatal("stacked view structure missing")
	}
	vm, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/views/ip-only/views/flat/switches/big0/flows/f", yancfs.FlowSpec{
		Match: vm, Priority: 7, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	// Compiled into the slice region by the big switch, then translated
	// into the master by the slicer — two stacked translations. Wait for
	// the committed version, not just the directory.
	eventually(t, "stacked translation", func() bool {
		names, _ := yancfs.ListFlows(p, "/switches/sw1")
		for _, n := range names {
			if strings.HasPrefix(n, "slice-ip-only-vnet-flat-f") {
				v, err := yancfs.FlowVersion(p, "/switches/sw1/flows/"+n)
				return err == nil && v >= 1
			}
		}
		return false
	})
	// The final master flow carries the slice's filter.
	names, _ := yancfs.ListFlows(p, "/switches/sw1")
	for _, n := range names {
		if strings.HasPrefix(n, "slice-ip-only-vnet-flat-f") {
			spec, err := yancfs.ReadFlow(p, "/switches/sw1/flows/"+n)
			if err != nil || !spec.Match.Has(openflow.FieldDLType) || spec.Match.DLType != 0x0800 {
				t.Errorf("stacked flow match = %+v %v", spec.Match, err)
			}
		}
	}
}
