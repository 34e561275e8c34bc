package yancfs

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	y, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func TestTopLevelHierarchy(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	for _, d := range []string{"/switches", "/hosts", "/views", "/events"} {
		if !p.IsDir(d) {
			t.Errorf("%s missing", d)
		}
	}
	// Top-level objects are protected from removal.
	if err := p.WithCred(vfs.Cred{UID: 1000}).Remove("/switches"); !errors.Is(err, vfs.ErrPerm) && !errors.Is(err, vfs.ErrAccess) {
		t.Errorf("remove /switches = %v", err)
	}
}

func TestSemanticMkdirSwitch(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	path, err := CreateSwitch(p, "/", "sw1")
	if err != nil {
		t.Fatal(err)
	}
	if path != "/switches/sw1" {
		t.Errorf("path = %s", path)
	}
	// Figure 3 skeleton.
	for _, d := range []string{"counters", "flows", "ports"} {
		if !p.IsDir(vfs.Join(path, d)) {
			t.Errorf("switch subdir %s missing", d)
		}
	}
	for _, f := range []string{"actions", "capabilities", "id", "num_buffers"} {
		if st, err := p.Stat(vfs.Join(path, f)); err != nil || st.IsDir() {
			t.Errorf("switch file %s: %v", f, err)
		}
	}
}

func TestSemanticMkdirView(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	// "mkdir views/new_view will create the directory new_view, but also
	// the hosts, switches, and views subdirectories" (§3.1).
	if err := p.Mkdir("/views/new_view", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"hosts", "switches", "views", "events"} {
		if !p.IsDir("/views/new_view/" + d) {
			t.Errorf("view subdir %s missing", d)
		}
	}
	// Views nest (Figure 2: management-net has its own views/).
	if err := p.Mkdir("/views/new_view/views/inner", 0o755); err != nil {
		t.Fatal(err)
	}
	if !p.IsDir("/views/new_view/views/inner/switches") {
		t.Error("nested view not populated")
	}
	// Switches created inside a view get the full skeleton too.
	if _, err := CreateSwitch(p, "/views/new_view", "vsw1"); err != nil {
		t.Fatal(err)
	}
	if !p.IsDir("/views/new_view/switches/vsw1/flows") {
		t.Error("view switch skeleton missing")
	}
}

func TestRecursiveSwitchRemoval(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	path, _ := CreateSwitch(p, "/", "sw1")
	if _, err := WriteFlow(p, vfs.Join(path, "flows", "f1"), FlowSpec{Priority: 1}); err != nil {
		t.Fatal(err)
	}
	// "Children of this object do not need to be removed prior to
	// removing the object itself" (§3.2).
	if err := p.Remove(path); err != nil {
		t.Fatal(err)
	}
	if p.Exists(path) {
		t.Fatal("switch not removed")
	}
}

func TestSwitchRename(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	path, _ := CreateSwitch(p, "/", "sw1")
	if err := p.Rename(path, "/switches/edge-1"); err != nil {
		t.Fatal(err)
	}
	if !p.IsDir("/switches/edge-1/flows") {
		t.Fatal("renamed switch lost its structure")
	}
}

func TestFlowWriteReadRoundTrip(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	swPath, _ := CreateSwitch(p, "/", "sw1")
	m, err := openflow.ParseMatch("dl_type=0x0806,nw_proto=1")
	if err != nil {
		t.Fatal(err)
	}
	actions, _ := openflow.ParseActions("out=2,set_nw_tos=8")
	spec := FlowSpec{
		Match:       m,
		Priority:    100,
		IdleTimeout: 30,
		HardTimeout: 60,
		Cookie:      42,
		Actions:     actions,
	}
	flowPath := vfs.Join(swPath, "flows", "arp_flow")
	v, err := WriteFlow(p, flowPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("first commit version = %d", v)
	}
	// Figure 3: the match files exist with the right content.
	if s, _ := p.ReadString(vfs.Join(flowPath, "match.dl_type")); s != "0x0806" {
		t.Errorf("match.dl_type = %q", s)
	}
	if s, _ := p.ReadString(vfs.Join(flowPath, "action.out")); s != "2" {
		t.Errorf("action.out = %q", s)
	}
	got, err := ReadFlow(p, flowPath)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Match.Equal(spec.Match) || got.Priority != 100 || got.IdleTimeout != 30 ||
		got.HardTimeout != 60 || got.Cookie != 42 {
		t.Errorf("read back = %+v", got)
	}
	// Non-output actions come first after the canonical ordering.
	if got.Actions[len(got.Actions)-1].Type != openflow.ActOutput {
		t.Errorf("actions order = %v", openflow.FormatActions(got.Actions))
	}
	// Rewriting with fewer fields removes stale files.
	spec2 := FlowSpec{Priority: 5, Actions: []openflow.Action{openflow.Output(1)}}
	if v, err = WriteFlow(p, flowPath, spec2); err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("second commit version = %d", v)
	}
	if p.Exists(vfs.Join(flowPath, "match.dl_type")) {
		t.Error("stale match file not removed")
	}
	if p.Exists(vfs.Join(flowPath, "action.set_nw_tos")) {
		t.Error("stale action file not removed")
	}
}

func TestFlowCommitVisibility(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	swPath, _ := CreateSwitch(p, "/", "sw1")
	flowPath := vfs.Join(swPath, "flows", "f1")
	// Stage without committing: version stays 0.
	if err := p.Mkdir(flowPath, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString(vfs.Join(flowPath, "match.tp_dst"), "22\n"); err != nil {
		t.Fatal(err)
	}
	if v, err := FlowVersion(p, flowPath); err != nil || v != 0 {
		t.Fatalf("staged version = %d %v", v, err)
	}
	// A driver watching version files sees exactly one event per commit.
	w, err := p.AddWatch(swPath, vfs.OpWrite, vfs.Recursive())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := CommitFlow(p, flowPath); err != nil {
		t.Fatal(err)
	}
	var versionWrites int
	timeout := time.After(time.Second)
	for versionWrites == 0 {
		select {
		case ev := <-w.C:
			if vfs.Base(ev.Path) == FileVersion && ev.Op == vfs.OpWrite {
				versionWrites++
			}
		case <-timeout:
			t.Fatal("no version write observed")
		}
	}
}

func TestPortPopulateAndPeerValidation(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	sw1, _ := CreateSwitch(p, "/", "sw1")
	sw2, _ := CreateSwitch(p, "/", "sw2")
	port := openflow.PortInfo{No: 2, HWAddr: ethernet.MAC{2, 0, 0, 0, 0, 2}, Name: "sw1-eth2", CurrSpeed: 10000}
	if err := PopulatePort(p, sw1, port); err != nil {
		t.Fatal(err)
	}
	if err := PopulatePort(p, sw2, openflow.PortInfo{No: 7, Name: "sw2-eth7"}); err != nil {
		t.Fatal(err)
	}
	p1 := vfs.Join(sw1, "ports", "2")
	if s, _ := p.ReadString(vfs.Join(p1, "hw_addr")); s != "02:00:00:00:00:02" {
		t.Errorf("hw_addr = %q", s)
	}
	// Peer must point at a port (§3.3).
	if err := SetPeer(p, p1, vfs.Join(sw2, "ports", "7")); err != nil {
		t.Fatal(err)
	}
	name, no, ok := Peer(p, p1)
	if !ok || name != "sw2" || no != 7 {
		t.Errorf("peer = %s %d %v", name, no, ok)
	}
	// Re-pointing replaces.
	if err := PopulatePort(p, sw2, openflow.PortInfo{No: 8, Name: "sw2-eth8"}); err != nil {
		t.Fatal(err)
	}
	if err := SetPeer(p, p1, vfs.Join(sw2, "ports", "8")); err != nil {
		t.Fatal(err)
	}
	if _, no, _ := Peer(p, p1); no != 8 {
		t.Errorf("re-pointed peer = %d", no)
	}
	// Pointing peer at a non-port is an error.
	if err := p.Symlink("/hosts", vfs.Join(sw2, "ports", "7", "peer")); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("invalid peer target = %v", err)
	}
	// Other symlink names in a port dir are unrestricted.
	if err := p.Symlink("/hosts", vfs.Join(sw2, "ports", "7", "note")); err != nil {
		t.Errorf("non-peer symlink = %v", err)
	}
}

func TestPortDownViaEcho(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	sw1, _ := CreateSwitch(p, "/", "sw1")
	if err := PopulatePort(p, sw1, openflow.PortInfo{No: 2, Name: "p2"}); err != nil {
		t.Fatal(err)
	}
	portPath := vfs.Join(sw1, "ports", "2")
	down, err := PortDown(p, portPath)
	if err != nil || down {
		t.Fatalf("initial down = %v %v", down, err)
	}
	// "# echo 1 > port_2/config.port_down" (§3.1).
	if err := p.WriteString(vfs.Join(portPath, "config.port_down"), "1\n"); err != nil {
		t.Fatal(err)
	}
	if down, _ = PortDown(p, portPath); !down {
		t.Fatal("port not marked down")
	}
}

func TestPopulateSwitchFromFeatures(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	swPath, _ := CreateSwitch(p, "/", "sw1")
	features := &openflow.FeaturesReply{
		DatapathID: 0xab,
		NBuffers:   256,
		NTables:    2,
		Ports: []openflow.PortInfo{
			{No: 1, Name: "e1"},
			{No: 2, Name: "e2"},
		},
	}
	if err := PopulateSwitch(p, swPath, features, "openflow10"); err != nil {
		t.Fatal(err)
	}
	id, err := SwitchID(p, swPath)
	if err != nil || id != 0xab {
		t.Fatalf("id = %x %v", id, err)
	}
	if s, _ := p.ReadString(vfs.Join(swPath, "protocol")); s != "openflow10" {
		t.Errorf("protocol = %q", s)
	}
	ports, err := ListPorts(p, swPath)
	if err != nil || len(ports) != 2 || ports[0] != 1 || ports[1] != 2 {
		t.Fatalf("ports = %v %v", ports, err)
	}
	names, err := ListSwitches(p, "/")
	if err != nil || len(names) != 1 || names[0] != "sw1" {
		t.Fatalf("switches = %v %v", names, err)
	}
}

type fakeCounters struct {
	flows map[string][2]uint64
	ports map[uint32]PortCounterSet
}

func (f *fakeCounters) FlowCounters(name string) (uint64, uint64, bool) {
	c, ok := f.flows[name]
	return c[0], c[1], ok
}

func (f *fakeCounters) PortCounters(no uint32) (PortCounterSet, bool) {
	c, ok := f.ports[no]
	return c, ok
}

func TestSyntheticCounters(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	swPath, _ := CreateSwitch(p, "/", "sw1")
	if err := PopulatePort(p, swPath, openflow.PortInfo{No: 1, Name: "e1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFlow(p, vfs.Join(swPath, "flows", "f1"), FlowSpec{Priority: 1}); err != nil {
		t.Fatal(err)
	}
	src := &fakeCounters{
		flows: map[string][2]uint64{"f1": {7, 700}},
		ports: map[uint32]PortCounterSet{1: {RxPackets: 11, TxBytes: 22}},
	}
	y.BindCounters(swPath, src)
	if s, _ := p.ReadString(vfs.Join(swPath, "flows", "f1", "counters", "packets")); s != "7" {
		t.Errorf("flow packets = %q", s)
	}
	if s, _ := p.ReadString(vfs.Join(swPath, "flows", "f1", "counters", "bytes")); s != "700" {
		t.Errorf("flow bytes = %q", s)
	}
	if s, _ := p.ReadString(vfs.Join(swPath, "ports", "1", "counters", "rx_packets")); s != "11" {
		t.Errorf("port rx = %q", s)
	}
	if s, _ := p.ReadString(vfs.Join(swPath, "counters", "rx_packets")); s != "11" {
		t.Errorf("switch aggregate rx = %q", s)
	}
	// Counter files are read-only.
	if err := p.WriteString(vfs.Join(swPath, "counters", "rx_packets"), "0"); err == nil {
		t.Error("counter write must fail")
	}
	// Live update visible immediately.
	src.ports[1] = PortCounterSet{RxPackets: 12}
	if s, _ := p.ReadString(vfs.Join(swPath, "ports", "1", "counters", "rx_packets")); s != "12" {
		t.Errorf("updated rx = %q", s)
	}
}

func TestEventSubscribeDeliverConsume(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	buf1, w1, err := Subscribe(p, "/", "router")
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	buf2, w2, err := Subscribe(p, "/", "monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	pi := &openflow.PacketIn{
		BufferID: 5, InPort: 3, Reason: openflow.ReasonNoMatch,
		TotalLen: 4, Data: []byte{1, 2, 3, 4},
	}
	if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
		t.Fatal(err)
	}
	// Both buffers got the message concurrently (§3.5).
	for i, buf := range []string{buf1, buf2} {
		msgs, err := PendingEvents(p, buf)
		if err != nil || len(msgs) != 1 {
			t.Fatalf("buffer %d msgs = %v %v", i, msgs, err)
		}
		ev, err := ReadPacketIn(p, msgs[0])
		if err != nil {
			t.Fatal(err)
		}
		if ev.Switch != "sw1" || ev.InPort != 3 || ev.BufferID != 5 || string(ev.Data) != "\x01\x02\x03\x04" {
			t.Errorf("buffer %d event = %+v", i, ev)
		}
	}
	// Watches fired.
	select {
	case ev := <-w1.C:
		if ev.Op != vfs.OpCreate {
			t.Errorf("watch event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no watch event")
	}
	// Consuming removes only the consumer's copy.
	msgs, _ := PendingEvents(p, buf1)
	if _, err := ConsumePacketIn(p, msgs[0]); err != nil {
		t.Fatal(err)
	}
	if left, _ := PendingEvents(p, buf1); len(left) != 0 {
		t.Error("consume did not remove the message")
	}
	if left, _ := PendingEvents(p, buf2); len(left) != 1 {
		t.Error("other buffer lost its copy")
	}
	// Delivery order is preserved.
	for i := 0; i < 3; i++ {
		_ = y.DeliverPacketIn("/", "sw1", pi)
	}
	msgs, _ = PendingEvents(p, buf2)
	if len(msgs) != 4 {
		t.Fatalf("pending = %d", len(msgs))
	}
	for i := 1; i < len(msgs); i++ {
		if !(msgs[i-1] < msgs[i]) {
			t.Errorf("order violated: %s !< %s", msgs[i-1], msgs[i])
		}
	}
}

func TestDeliverWithNoSubscribers(t *testing.T) {
	y := newFS(t)
	if err := y.DeliverPacketIn("/", "sw1", &openflow.PacketIn{Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
}

func TestEventsInViewRegion(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	if err := p.Mkdir("/views/http", 0o755); err != nil {
		t.Fatal(err)
	}
	_, w, err := Subscribe(p, "/views/http", "lb")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := y.DeliverPacketIn("/views/http", "vsw1", &openflow.PacketIn{Data: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	msgs, err := PendingEvents(p, "/views/http/events/lb")
	if err != nil || len(msgs) != 1 {
		t.Fatalf("view events = %v %v", msgs, err)
	}
	// Master subscribers do not see view events.
	_, mw, _ := Subscribe(p, "/", "other")
	defer mw.Close()
	if msgs, _ := PendingEvents(p, "/events/other"); len(msgs) != 0 {
		t.Error("view event leaked to master")
	}
}

func TestPermissionsProtectFlows(t *testing.T) {
	y := newFS(t)
	root := y.Root()
	swPath, _ := CreateSwitch(root, "/", "sw1")
	flowPath := vfs.Join(swPath, "flows", "critical")
	if _, err := WriteFlow(root, flowPath, FlowSpec{Priority: 1000}); err != nil {
		t.Fatal(err)
	}
	alice := y.Proc(vfs.Cred{UID: 1000, GID: 1000})
	// alice cannot modify the root-owned flow's files.
	if err := alice.WriteString(vfs.Join(flowPath, "priority"), "1"); !errors.Is(err, vfs.ErrAccess) {
		t.Errorf("alice flow write = %v", err)
	}
	// An entire switch can be protected (§5.1): chmod 0700 on the switch
	// dir blocks traversal.
	if err := root.Chmod(swPath, 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.ReadDir(vfs.Join(swPath, "flows")); !errors.Is(err, vfs.ErrAccess) {
		t.Errorf("alice flows readdir = %v", err)
	}
	// Granting a group opens it selectively.
	if err := root.Chmod(swPath, 0o750); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown(swPath, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.ReadDir(vfs.Join(swPath, "flows")); err != nil {
		t.Errorf("group member readdir = %v", err)
	}
}

func TestConsistencyXattr(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	swPath, _ := CreateSwitch(p, "/", "sw1")
	// §5.1/§6: xattrs carry consistency requirements for subtrees.
	if err := p.SetXattr(swPath, "user.yanc.consistency", []byte("eventual")); err != nil {
		t.Fatal(err)
	}
	v, err := p.GetXattrString(swPath, "user.yanc.consistency")
	if err != nil || v != "eventual" {
		t.Fatalf("xattr = %q %v", v, err)
	}
}

func TestHostObjects(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	if err := AddHost(p, "/", "h1", "02:00:00:00:00:01", "10.0.0.1", "sw1", 1); err != nil {
		t.Fatal(err)
	}
	if s, _ := p.ReadString("/hosts/h1/ip"); s != "10.0.0.1" {
		t.Errorf("host ip = %q", s)
	}
	if s, _ := p.ReadString("/hosts/h1/switch"); s != "sw1" {
		t.Errorf("host switch = %q", s)
	}
}

func TestFigure2Hierarchy(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	// Build exactly Figure 2: sw1, sw2, views/http, views/management-net.
	for _, sw := range []string{"sw1", "sw2"} {
		if _, err := CreateSwitch(p, "/", sw); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []string{"http", "management-net"} {
		if err := p.Mkdir("/views/"+v, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := p.Walk("/", func(path string, st vfs.Stat) error {
		depth := strings.Count(path, "/")
		if depth <= 2 && path != "/" {
			got = append(got, path)
		}
		if depth >= 2 {
			return vfs.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"/events",
		"/hosts",
		"/switches", "/switches/sw1", "/switches/sw2",
		"/views", "/views/http", "/views/management-net",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("hierarchy:\n got %v\nwant %v", got, want)
	}
	// management-net has the nested region dirs of Figure 2.
	for _, d := range []string{"hosts", "switches", "views"} {
		if !p.IsDir("/views/management-net/" + d) {
			t.Errorf("management-net/%s missing", d)
		}
	}
}

func TestFigure3Representations(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	swPath, _ := CreateSwitch(p, "/", "sw1")
	m, _ := openflow.ParseMatch("dl_type=0x0806,dl_src=00:00:00:00:00:01")
	if _, err := WriteFlow(p, vfs.Join(swPath, "flows", "arp_flow"), FlowSpec{
		Match:       m,
		Priority:    10,
		IdleTimeout: 60,
		Actions:     []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	// Figure 3 flow entries: counters/, match.dl_type, match.dl_src,
	// action.out, priority, timeout (idle), version.
	flow := vfs.Join(swPath, "flows", "arp_flow")
	for _, name := range []string{"counters", "match.dl_type", "match.dl_src", "action.out", "priority", "idle_timeout", "version"} {
		if !p.Exists(vfs.Join(flow, name)) {
			t.Errorf("flow entry %s missing", name)
		}
	}
	// Figure 3 switch: counters/, flows/, ports/, actions, capabilities,
	// id, num_buffers.
	for _, name := range []string{"counters", "flows", "ports", "actions", "capabilities", "id", "num_buffers"} {
		if !p.Exists(vfs.Join(swPath, name)) {
			t.Errorf("switch entry %s missing", name)
		}
	}
}

// footprintSpec is the benchmark's resident flow shape (six match
// fields, two actions, a priority and an idle timeout): a directory of
// 12 files and a counters directory with 2 — 16 names.
func footprintSpec(i int) FlowSpec {
	var m openflow.Match
	for f, v := range map[openflow.Field]string{
		openflow.FieldDLType:  "0x0800",
		openflow.FieldNWProto: "6",
		openflow.FieldNWSrc:   fmt.Sprintf("10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff),
		openflow.FieldNWDst:   "192.168.0.1",
		openflow.FieldTPSrc:   strconv.Itoa(1024 + i%60000),
		openflow.FieldTPDst:   "80",
	} {
		if err := m.SetField(f, v); err != nil {
			panic(err)
		}
	}
	return FlowSpec{
		Match:       m,
		Priority:    uint16(100 + i%1000),
		IdleTimeout: 60,
		Actions:     []openflow.Action{{Type: openflow.ActSetNWTos, TOS: 16}, openflow.Output(uint32(1 + i%3))},
	}
}

// TestFlowFootprint pins what a resident flow costs in live heap, file
// system only (no driver, no sockets): a flow IS its directory of files,
// so this is what an inode and a directory cost. 4,096 flows land once
// through PutFlowTx (one WriteTree each, the ring's commit path) and
// once through WriteFlow (one file-I/O call per field) followed by a
// ReadFlow of every flow — reading must leave nothing pinned behind.
// The bound is the tier-1 guard for the benchmark's heap_bytes_per_flow.
// A flow's 16 names are 14 inodes: its directory, 12 files and its own
// counters/ directory. The two counter files are one file set per
// creator, attached to every flow that creator makes, so nothing per
// flow hangs off them, and counters/ publishes the set's children trie
// instead of a leaf of its own. A file's content is one pointer to a
// length-prefixed blob, with no header of its own, and an inode is 64
// bytes. PutFlowTx's flow is its 14 inodes in two header-free slab
// chunks (512 + 384 B), its two directory states, one ~400-byte trie
// leaf for the flow directory, one arena packing all twelve values and
// the side structs: 1,507 B. WriteFlow's is a 64-byte object per file
// inode (a directory's shares one with its state), a blob only for a
// value the intern pool does not hold, and the same leaf: 1,459 B. The
// bound is the larger plus 3 %.
func TestFlowFootprint(t *testing.T) {
	const flows, limit = 4096, 1552
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	paths := make([]string, flows)
	specs := make([]FlowSpec, flows)
	for i := range paths {
		paths[i] = FlowPath("sw1", fmt.Sprintf("f%06d", i))
		specs[i] = footprintSpec(i)
	}
	fills := []struct {
		name string
		fill func(y *FS) error
	}{
		{"PutFlowTx", func(y *FS) error {
			return y.VFS().WithTx(func(tx *vfs.Tx) error {
				for i, path := range paths {
					if _, err := y.PutFlowTx(tx, path, specs[i]); err != nil {
						return err
					}
				}
				return nil
			})
		}},
		{"WriteFlow+ReadFlow", func(y *FS) error {
			for i, path := range paths {
				if _, err := WriteFlow(y.Root(), path, specs[i]); err != nil {
					return err
				}
			}
			for i, path := range paths {
				got, err := ReadFlow(y.Root(), path)
				if err != nil {
					return err
				}
				if !got.Match.Equal(specs[i].Match) {
					return fmt.Errorf("%s read back as %v", path, got.Match)
				}
			}
			return nil
		}},
	}
	// The vfs intern pools are process-wide and bounded: while they have
	// room, a flow's name and values are billed to whichever fill came
	// first. Fill them to their caps with other flows' names and values
	// on a file system that is then dropped, so both measurements see
	// the steady state: a flow pays for its own strings.
	warm := newFS(t)
	if _, err := CreateSwitch(warm.Root(), "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4200; i++ {
		if _, err := WriteFlow(warm.Root(), FlowPath("sw1", fmt.Sprintf("warm%06d", i)), footprintSpec(1<<20+i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range fills {
		name := f.name
		y := newFS(t)
		if _, err := CreateSwitch(y.Root(), "/", "sw1"); err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		if err := f.fill(y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		perFlow := (int64(liveHeap()) - int64(before)) / flows
		t.Logf("%s: %d B of live heap per flow", name, perFlow)
		if perFlow > limit {
			t.Errorf("%s: a resident flow costs %d B of live heap, want <= %d", name, perFlow, limit)
		}
		nodes := 0
		if err := y.Root().Walk(paths[0], func(string, vfs.Stat) error { nodes++; return nil }); err != nil || nodes != 16 {
			t.Errorf("%s: a flow is %d nodes (%v), want 16", name, nodes, err)
		}
		// Every flow holds the one counters set of its creator: one
		// inode, whose nlink counts the flows, down as well as up.
		counter := func(i int) vfs.Stat {
			st, err := y.Root().Stat(paths[i] + "/counters/packets")
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return st
		}
		if a, b := counter(0), counter(flows-1); a.Ino != b.Ino || a.Nlink != flows {
			t.Errorf("%s: counters/packets inodes %d and %d, nlink %d; want one inode, nlink %d", name, a.Ino, b.Ino, a.Nlink, flows)
		}
		if err := DeleteFlow(y.Root(), paths[1]); err != nil {
			t.Fatal(err)
		}
		if st := counter(0); st.Nlink != flows-1 {
			t.Errorf("%s: nlink after a flow went = %d, want %d", name, st.Nlink, flows-1)
		}
		runtime.KeepAlive(y)
	}
}

// TestAllocListAndReadFlow pins that the scanner's two calls walk the
// flow table and the flow directory with the vfs cursor and copy neither
// into a listing. ListFlows over 10⁴ flows allocates its names slice and
// the joined flows/ path, nothing per flow. ReadFlow of one footprint
// flow (12 files and counters/) allocates no []DirEntry: its 13 entries
// alone would be 416 B.
func TestAllocListAndReadFlow(t *testing.T) {
	const flows = 10_000
	y := newFS(t)
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	if err := y.VFS().WithTx(func(tx *vfs.Tx) error {
		for i := range flows {
			if _, err := y.PutFlowTx(tx, FlowPath("sw1", fmt.Sprintf("f%05d", i)), footprintSpec(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	perCall := func(fn func()) (float64, uint64) {
		allocs := testing.AllocsPerRun(10, fn)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			fn()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 10
	}
	sw := SwitchPath("sw1")
	allocs, bytes := perCall(func() {
		if names, err := ListFlows(p, sw); err != nil || len(names) != flows {
			t.Fatalf("ListFlows: %d names, %v", len(names), err)
		}
	})
	t.Logf("ListFlows of %d flows: %.0f allocs, %d B", flows, allocs, bytes)
	if names := uint64(flows * 16); allocs > 2 || bytes > names+names/8 { // 16 B per string header
		t.Errorf("ListFlows of %d flows: %.0f allocs, %d B; want <= 2 and <= the %d B names slice plus its size class", flows, allocs, bytes, names)
	}
	flow := FlowPath("sw1", "f00042")
	allocs, bytes = perCall(func() {
		if spec, err := ReadFlow(p, flow); err != nil || spec.Priority != footprintSpec(42).Priority {
			t.Fatalf("ReadFlow: %+v, %v", spec, err)
		}
	})
	t.Logf("ReadFlow: %.0f allocs, %d B", allocs, bytes)
	// 400 B measured: the value copies and the parsed actions.
	if !raceEnabled && bytes > 440 {
		t.Errorf("ReadFlow of a 12-file flow: %.0f allocs, %d B; want <= 440 B", allocs, bytes)
	}
}

// TestReadFileSharedCapIsLen pins that a shared read hands out a file's
// bytes and no room past them. PutFlowTx packs a flow's values side by
// side in one arena, so a shared read with spare capacity would let a
// reader's append write over the next file's value: published bytes
// would change under every other reader. It checks that an append to one
// ring-written file leaves the flow's other files as they were, and that
// shared reads of files written by the ring, by WriteFlow and by
// packet-in delivery all have cap == len.
func TestReadFileSharedCapIsLen(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	ring := FlowPath("sw1", "ring")
	if err := y.VFS().WithTx(func(tx *vfs.Tx) error {
		_, err := y.PutFlowTx(tx, ring, footprintSpec(7))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	entries, err := p.ReadDir(ring)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	for _, e := range entries {
		if !e.IsDir() {
			b, err := p.ReadFile(vfs.Join(ring, e.Name))
			if err != nil {
				t.Fatal(err)
			}
			before[e.Name] = string(b)
		}
	}
	shared, err := p.ReadFileShared(vfs.Join(ring, FilePriority))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(shared, "XX"...)
	for name, want := range before {
		if got, err := p.ReadFile(vfs.Join(ring, name)); err != nil || string(got) != want {
			t.Errorf("after an append to a shared read of %s, %s = %q (%v), want %q", FilePriority, name, got, err, want)
		}
	}

	file := FlowPath("sw1", "file")
	if _, err := WriteFlow(p, file, footprintSpec(8)); err != nil {
		t.Fatal(err)
	}
	buf, w, err := Subscribe(p, "/", "app")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := y.DeliverPacketIn("/", "sw1", testPacketIn(32)); err != nil {
		t.Fatal(err)
	}
	msgs, err := PendingEvents(p, buf)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("pending = %v %v", msgs, err)
	}
	for _, path := range []string{
		vfs.Join(ring, FilePriority), vfs.Join(ring, FileVersion), vfs.Join(ring, "match.nw_src"),
		vfs.Join(file, FilePriority), vfs.Join(file, FileVersion), vfs.Join(file, "match.nw_src"),
		vfs.Join(msgs[0], "in_port"), vfs.Join(msgs[0], "data"),
	} {
		b, err := p.ReadFileShared(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 || cap(b) != len(b) {
			t.Errorf("ReadFileShared(%s): len %d, cap %d; want cap == len > 0", path, len(b), cap(b))
		}
	}
}

// TestFlowCountersShared pins what sharing a flow's counter files means.
// The counters set is per creator: flows made by one credential share
// counters/packets, flows made by another do not, and stat shows each
// flow's counter files owned by whoever made the flow. The files are hard
// links, so a chmod through one flow applies to every flow of that
// creator — and to no other creator's. Reads still answer for the flow
// the path names.
func TestFlowCountersShared(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Chmod(vfs.Join(SwitchPath("sw1"), "flows"), 0o777); err != nil {
		t.Fatal(err)
	}
	user := y.Proc(vfs.Cred{UID: 1000, GID: 1000})
	spec := FlowSpec{Priority: 1}
	for _, f := range []struct {
		p    *vfs.Proc
		name string
	}{{p, "r1"}, {p, "r2"}, {user, "u1"}, {user, "u2"}} {
		if _, err := WriteFlow(f.p, FlowPath("sw1", f.name), spec); err != nil {
			t.Fatal(err)
		}
	}
	stat := func(flow string) vfs.Stat {
		st, err := p.Stat(FlowPath("sw1", flow) + "/counters/packets")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	r1, r2, u1, u2 := stat("r1"), stat("r2"), stat("u1"), stat("u2")
	if r1.Ino != r2.Ino || u1.Ino != u2.Ino || r1.Ino == u1.Ino {
		t.Fatalf("counters/packets inodes: root %d %d, user %d %d; want one per creator", r1.Ino, r2.Ino, u1.Ino, u2.Ino)
	}
	if r1.Nlink != 2 || u1.Nlink != 2 || u1.UID != 1000 || u1.GID != 1000 || r1.UID != 0 || r1.Mode != 0o444 {
		t.Fatalf("root's counter %+v, user's %+v", r1, u1)
	}
	if err := user.Chmod(FlowPath("sw1", "u1")+"/counters/packets", 0o400); err != nil {
		t.Fatal(err)
	}
	if u2, r1 := stat("u2"), stat("r1"); u2.Mode != 0o400 || r1.Mode != 0o444 {
		t.Fatalf("chmod through u1: u2 at %o, r1 at %o; want 400, 444", u2.Mode, r1.Mode)
	}
	y.BindCounters(SwitchPath("sw1"), &fakeCounters{flows: map[string][2]uint64{"r2": {7, 700}}})
	for flow, want := range map[string]string{"r1": "0", "r2": "7"} {
		if got, err := p.ReadString(FlowPath("sw1", flow) + "/counters/packets"); err != nil || got != want {
			t.Errorf("%s counters/packets = %q, %v; want %q", flow, got, err, want)
		}
	}
}

// TestStressReadFlowNeverTornByTx pins what ReadFlow's seqlock rests on:
// a Proc read never returns bytes a transaction wrote before that
// transaction commits. Transactions rewrite three field files and then
// the version in place; whatever ReadFlow returns must be one commit's
// fields, even when both version reads around them saw the old version.
func TestStressReadFlowNeverTornByTx(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	flow := FlowPath("sw1", "f1")
	spec := func(g uint64) FlowSpec {
		s := FlowSpec{Priority: uint16(g), Cookie: g}
		s.Match.SetField(openflow.FieldTPDst, strconv.FormatUint(g, 10))
		return s
	}
	if _, err := WriteFlow(p, flow, spec(1)); err != nil {
		t.Fatal(err)
	}
	field := func(g uint64) []byte { return strconv.AppendUint(nil, g, 10) }
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var err error
		for g := uint64(2); err == nil; g++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			err = y.VFS().WithTx(func(tx *vfs.Tx) error {
				for _, name := range []string{MatchPrefix + openflow.FieldTPDst.Name(), FilePriority, FileCookie, FileVersion} {
					if err := tx.WriteFile(vfs.Join(flow, name), field(g%60000), 0o644, 0, 0); err != nil {
						return err
					}
					runtime.Gosched() // widen the window a reader can land in
				}
				return nil
			})
			time.Sleep(2 * time.Millisecond) // leave ReadFlow's eight attempts room to succeed
		}
		done <- err
	}()
	for commits := uint64(0); commits < 150; {
		got, err := ReadFlow(p, flow)
		if err != nil {
			t.Fatal(err)
		}
		commits = got.Cookie
		if want := spec(got.Cookie); got.Priority != want.Priority || !got.Match.Equal(want.Match) {
			t.Fatalf("torn flow: cookie %d priority %d match %v", got.Cookie, got.Priority, got.Match)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStressReadFlowUnstableIsAnError covers the other end of the seqlock:
// a writer that commits in a tight loop, so ReadFlow's eight attempts can
// all see the version move. Whatever ReadFlow then returns must still be
// one commit's fields, or ErrFlowUnstable — never its last, unvalidated
// attempt with a nil error.
func TestStressReadFlowUnstableIsAnError(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	flow := FlowPath("sw1", "f1")
	var first FlowSpec
	first.Match.SetField(openflow.FieldTPDst, "1")
	first.Priority, first.Cookie = 1, 1
	if _, err := WriteFlow(p, flow, first); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var err error
		for g := uint64(2); err == nil; g = g%60000 + 1 {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			field := strconv.AppendUint(nil, g, 10)
			err = y.VFS().WithTx(func(tx *vfs.Tx) error {
				for _, name := range []string{MatchPrefix + openflow.FieldTPDst.Name(), FilePriority, FileCookie, FileVersion} {
					if err := tx.WriteFile(vfs.Join(flow, name), field, 0o644, 0, 0); err != nil {
						return err
					}
				}
				return nil
			})
		}
		done <- err
	}()
	const reads = 2000
	unstable := 0
	for i := 0; i < reads; i++ {
		got, err := ReadFlow(p, flow)
		if errors.Is(err, ErrFlowUnstable) {
			unstable++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var want openflow.Match
		want.SetField(openflow.FieldTPDst, strconv.FormatUint(got.Cookie, 10))
		if got.Priority != uint16(got.Cookie) || !got.Match.Equal(want) {
			t.Fatalf("read %d: unvalidated flow returned with a nil error: cookie %d priority %d match %v",
				i, got.Cookie, got.Priority, got.Match)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d reads gave up with ErrFlowUnstable", unstable, reads)
}
