package procfs

import (
	"slices"
	"strings"
	"testing"

	"yanc/internal/dfs"
	"yanc/internal/vfs"
)

func TestInstallCreatesReadOnlyTree(t *testing.T) {
	fs := vfs.New()
	tree, err := Install(fs)
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil {
		t.Fatal("nil tree")
	}
	p := fs.RootProc()
	for _, path := range []string{
		Dir + "/vfs/ops",
		Dir + "/vfs/contention",
		Dir + "/vfs/resolve_lockfree",
		Dir + "/vfs/resolve_fallback",
		Dir + "/watch/queues",
		Dir + "/dfs/rpc",
		Dir + "/dfs/queue",
		Dir + "/dfs/reconnects",
	} {
		s, err := p.ReadString(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if s == "" {
			t.Fatalf("%s rendered empty", path)
		}
	}
	for _, d := range []string{Dir, DriverDir, AppsDir} {
		st, err := p.Stat(d)
		if err != nil {
			t.Fatalf("stat %s: %v", d, err)
		}
		if !st.IsDir() {
			t.Fatalf("%s is not a directory", d)
		}
	}
	// Even root cannot write metrics: synthetic files without a Write
	// hook reject all writes.
	if err := p.WriteString(Dir+"/vfs/ops", "tamper"); err == nil {
		t.Fatal("write to .proc file unexpectedly succeeded")
	}
	// Unprivileged apps cannot create files inside the 0555 tree.
	app := fs.Proc(vfs.Cred{UID: 1000, GID: 1000})
	if err := app.WriteString(Dir+"/vfs/extra", "new"); err == nil {
		t.Fatal("unprivileged create inside .proc unexpectedly succeeded")
	}
}

func TestOpsAndLatencyReflectActivity(t *testing.T) {
	fs := vfs.New()
	if _, err := Install(fs); err != nil {
		t.Fatal(err)
	}
	p := fs.RootProc()
	if err := p.MkdirAll("/switches/sw1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/switches/sw1/state", "up"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadString("/switches/sw1/state"); err != nil {
		t.Fatal(err)
	}

	ops, err := p.ReadString(Dir + "/vfs/ops")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"opens", "reads", "writes", "total"} {
		if !strings.Contains(ops, field) {
			t.Fatalf("ops missing %q:\n%s", field, ops)
		}
	}
	if strings.Contains(ops, "writes   0\n") {
		t.Fatalf("writes counter stuck at zero:\n%s", ops)
	}

	// Lock telemetry: the activity above took the tree lock, the only
	// lock level there is.
	if p.Exists(Dir + "/vfs/lock_shards") {
		t.Fatal("lock_shards still reports the inode stripes, which are gone")
	}
	cont, err := p.ReadString(Dir + "/vfs/contention")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"tree_read", "tree_write", "contended_total", "watch_dispatch_queued"} {
		if !strings.Contains(cont, field) {
			t.Fatalf("contention missing %q:\n%s", field, cont)
		}
	}
	if strings.Contains(cont, "shard") {
		t.Fatalf("contention still has stripe rows:\n%s", cont)
	}
	if strings.Contains(cont, "tree_read               0\n") {
		t.Fatalf("tree_read counter stuck at zero:\n%s", cont)
	}
}

func TestWatchQueuesListWatches(t *testing.T) {
	fs := vfs.New()
	if _, err := Install(fs); err != nil {
		t.Fatal(err)
	}
	p := fs.RootProc()
	if err := p.MkdirAll("/topo", 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := p.AddWatch("/topo", vfs.OpAll, vfs.Recursive())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fw, err := p.AddWatch("/topo", vfs.OpWrite, vfs.Files("version", "config.port_down"))
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	s, err := p.ReadString(Dir + "/watch/queues")
	if err != nil {
		t.Fatal(err)
	}
	// The files column reads "-" for a watch that takes every name and
	// lists the filter of one that does not.
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		f := strings.Fields(line)
		if len(f) >= 8 && f[7] == "/topo" {
			rows = append(rows, f[6]+" "+strings.Join(f[7:], " "))
		}
	}
	want := []string{"- /topo (recursive)", "version,config.port_down /topo"}
	if !slices.Equal(rows, want) {
		t.Fatalf("watch rows for /topo = %q, want %q; table:\n%s", rows, want, s)
	}
	if !strings.Contains(strings.SplitN(s, "\n", 2)[0], " files ") {
		t.Fatalf("watch table header lacks the files column:\n%s", s)
	}
}

func TestDFSBindings(t *testing.T) {
	fs := vfs.New()
	tree, err := Install(fs)
	if err != nil {
		t.Fatal(err)
	}
	p := fs.RootProc()

	// Empty registries render placeholders, not errors.
	for path, want := range map[string]string{
		Dir + "/dfs/rpc":        "no exports",
		Dir + "/dfs/queue":      "no mounts",
		Dir + "/dfs/reconnects": "no mounts",
	} {
		s, err := p.ReadString(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, want) {
			t.Fatalf("%s: want %q, got:\n%s", path, want, s)
		}
	}

	srv := dfs.NewServer(fs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tree.BindDFSServer(srv)

	c, err := dfs.Mount(addr, vfs.Root, dfs.Strict)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tree.BindDFSClient("peer", c)

	if err := c.MkdirAll("/from-remote", 0o755); err != nil {
		t.Fatal(err)
	}

	rpc, err := p.ReadString(Dir + "/dfs/rpc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rpc, "export 0:") || !strings.Contains(rpc, "requests") {
		t.Fatalf("rpc file malformed:\n%s", rpc)
	}
	rec, err := p.ReadString(Dir + "/dfs/reconnects")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec, "peer: up") {
		t.Fatalf("reconnects should show peer up:\n%s", rec)
	}
	q, err := p.ReadString(Dir + "/dfs/queue")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q, "peer: depth") {
		t.Fatalf("queue file malformed:\n%s", q)
	}

	tree.UnbindDFSClient("peer")
	rec, err = p.ReadString(Dir + "/dfs/reconnects")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec, "no mounts") {
		t.Fatalf("unbind did not remove mount:\n%s", rec)
	}
}

func TestInstallIsIdempotent(t *testing.T) {
	fs := vfs.New()
	if _, err := Install(fs); err != nil {
		t.Fatal(err)
	}
	// Reinstalling rebinds the synthetic files in place rather than
	// failing, so a restarted controller can reclaim the subtree.
	if _, err := Install(fs); err != nil {
		t.Fatalf("second install failed: %v", err)
	}
	if s, err := fs.RootProc().ReadString(Dir + "/vfs/ops"); err != nil || s == "" {
		t.Fatalf("ops unreadable after reinstall: %q, %v", s, err)
	}
}

func TestReplicationFile(t *testing.T) {
	fs := vfs.New()
	tree, err := Install(fs)
	if err != nil {
		t.Fatal(err)
	}
	p := fs.RootProc()

	s, err := p.ReadString(Dir + "/dfs/replication")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "no replicas") {
		t.Fatalf("empty registry should render placeholder:\n%s", s)
	}

	// A single-member group elects itself leader immediately.
	rfs := vfs.New()
	rep, err := dfs.NewReplica(rfs, dfs.ReplicaOptions{ID: 0, Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	defer rep.Close()
	tree.BindReplica(rep)

	c, err := dfs.MountReplicas([]string{addr}, vfs.Root, dfs.Strict, dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tree.BindDFSClient("ha", c)
	if err := c.WriteFile("/flows/f1", []byte("out=2"), 0o644); err == nil {
		t.Fatal("write into missing dir should fail")
	}
	if err := c.MkdirAll("/flows", 0o755); err != nil {
		t.Fatal(err)
	}

	s, err = p.ReadString(Dir + "/dfs/replication")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "replica 0: role leader term") {
		t.Fatalf("replication file missing leader row:\n%s", s)
	}
	if !strings.Contains(s, "applied") || !strings.Contains(s, "lag 0") {
		t.Fatalf("replication file missing apply state:\n%s", s)
	}
}
