package yanc

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"yanc/internal/libyanc"
	"yanc/internal/openflow"
	"yanc/internal/switchsim"
)

// startNetwork connects a simulated linear network to the controller over
// real TCP and registers hosts.
func startNetwork(t *testing.T, ctrl *Controller, k int) (*switchsim.Network, []*switchsim.Host) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ctrl.Serve(ln) }()
	t.Cleanup(func() { ln.Close() })
	n, hosts := switchsim.BuildLinear(k, openflow.Version10)
	for _, sw := range n.Switches() {
		sw := sw
		go func() { _ = sw.Dial(ln.Addr().String()) }()
	}
	p := ctrl.Root()
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, _ := p.ReadDir("/switches")
		if len(entries) == k {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d switches attached", len(entries), k)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Driver telemetry registers after the switch subtree appears; tests
	// that list /.proc/driver right away must not race that last step.
	for {
		entries, _ := p.ReadDir("/.proc/driver")
		if len(entries) >= k {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d driver telemetry dirs registered", len(entries), k)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, h := range hosts {
		dpid, port := h.Attachment()
		sh := ctrl.Shell(nil)
		_ = sh
		if err := p.MkdirAll("/hosts/"+h.Name, 0o755); err != nil {
			t.Fatal(err)
		}
		for file, val := range map[string]string{
			"mac":    h.MAC.String(),
			"ip":     h.IP.String(),
			"switch": n.Switch(dpid).Name,
			"port":   itoa(int(port)),
		} {
			if err := p.WriteString("/hosts/"+h.Name+"/"+file, val+"\n"); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n, hosts
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

func TestEndToEndOverTCP(t *testing.T) {
	ctrl, err := NewController()
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	n, hosts := startNetwork(t, ctrl, 3)
	_ = n
	p := ctrl.Root()

	// Topology discovery, then the reactive router.
	td := NewTopod(p, "/")
	if err := td.DiscoverOnce(); err != nil {
		t.Fatal(err)
	}
	td.Stop()
	rt := NewRouter(p, "/")
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	hosts[2].ClearReceived()
	hosts[0].Ping(hosts[2], 1)
	if !hosts[2].WaitFor(func([][]byte) bool { return hosts[2].ReceivedPing(1) }, 5*time.Second) {
		t.Fatal("end-to-end ping failed")
	}

	// The administrator inspects state with coreutils.
	var out strings.Builder
	sh := ctrl.Shell(&out)
	if err := sh.Run("ls /switches"); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "sw1\nsw2\nsw3\n" {
		t.Errorf("ls = %q", got)
	}
	out.Reset()
	if err := sh.Run("find /switches -name peer -type l | wc -l"); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "4" {
		t.Errorf("peer links = %q", out.String())
	}
}

func TestPublicAPIFlowHelpers(t *testing.T) {
	ctrl, err := NewController()
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	p := ctrl.Root()
	if err := p.Mkdir("/switches/sw1", 0o755); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMatch("dl_type=0x0800,tp_dst=443,nw_proto=6")
	if err != nil {
		t.Fatal(err)
	}
	actions, err := ParseActions("set_nw_tos=16,out=2")
	if err != nil {
		t.Fatal(err)
	}
	v, err := WriteFlow(p, "/switches/sw1/flows/https", FlowSpec{Match: m, Priority: 9, Actions: actions})
	if err != nil || v != 1 {
		t.Fatalf("WriteFlow = %d %v", v, err)
	}
	spec, err := ReadFlow(p, "/switches/sw1/flows/https")
	if err != nil || !spec.Match.Equal(m) || spec.Priority != 9 {
		t.Fatalf("ReadFlow = %+v %v", spec, err)
	}
	// The fastpath produces the same result.
	ring := ctrl.Fastpath().NewFlowRing(libyanc.RingConfig{})
	if err := ring.Submit(libyanc.SQE{Op: libyanc.OpPut, Path: "/switches/sw1/flows/fast", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlow(p, "/switches/sw1/flows/fast")
	if err != nil || !got.Match.Equal(m) {
		t.Fatalf("fastpath flow = %+v %v", got, err)
	}
}

func TestNamespaceLaunchIsolation(t *testing.T) {
	ctrl, err := NewController()
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	root := ctrl.Root()
	if err := root.Mkdir("/views/tenant", 0o755); err != nil {
		t.Fatal(err)
	}
	g := ctrl.Namespaces().CreateGroup("tenant", Limits{MaxOps: 100})
	p, err := ctrl.Launch(Namespace{
		Name:  "tenant-app",
		Cred:  Cred{UID: 2000, GID: 2000},
		Root:  "/views/tenant",
		Group: g,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Exists("/switches/anything") {
		t.Error("tenant sees master region")
	}
	// Accounting runs.
	_ = p.Exists("/switches")
	if g.Usage().Ops == 0 {
		t.Error("control group not metering")
	}
}

func TestExportAndMountDFS(t *testing.T) {
	ctrl, err := NewController()
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.Root().Mkdir("/switches/sw1", 0o755); err != nil {
		t.Fatal(err)
	}
	addr, srv, err := ctrl.ExportDFS("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := MountDFS(addr, Root, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	entries, err := remote.ReadDir("/switches")
	if err != nil || len(entries) != 1 || entries[0].Name != "sw1" {
		t.Fatalf("remote readdir = %v %v", entries, err)
	}
}

func TestProcMetricsLocalAndRemote(t *testing.T) {
	ctrl, err := NewController()
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	_, _ = startNetwork(t, ctrl, 2)

	// Locally, the metrics are plain files for the shell.
	var out bytes.Buffer
	sh := ctrl.Shell(&out)
	if err := sh.Run("cat /.proc/vfs/ops"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "total") {
		t.Fatalf("shell cat /.proc/vfs/ops:\n%s", out.String())
	}
	out.Reset()
	if err := sh.Run("ls /.proc/driver"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sw1") {
		t.Fatalf("driver telemetry missing:\n%s", out.String())
	}

	// Remotely, the same files are readable through a dfs mount, and the
	// mount itself shows up in the metrics once bound.
	addr, srv, err := ctrl.ExportDFS("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := MountDFS(addr, Root, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctrl.BindMount("peer", remote)

	lat, err := remote.ReadFile("/.proc/vfs/latency")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(lat), "p99") {
		t.Fatalf("remote latency read:\n%s", lat)
	}
	rec, err := remote.ReadFile("/.proc/dfs/reconnects")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rec), "peer: up") {
		t.Fatalf("mount not visible in metrics:\n%s", rec)
	}
	rpc, err := remote.ReadFile("/.proc/dfs/rpc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rpc), "export 0:") {
		t.Fatalf("export not visible in metrics:\n%s", rpc)
	}

	// Per-app accounting appears once a namespace launches.
	if _, err := ctrl.Launch(Namespace{Name: "probe", Cred: Root}); err != nil {
		t.Fatal(err)
	}
	app, err := remote.ReadFile("/.proc/apps/probe")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(app), "name probe") {
		t.Fatalf("app accounting:\n%s", app)
	}

	ctrl.UnbindMount("peer")
}
