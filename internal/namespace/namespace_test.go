package namespace

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

func TestGroupMaxOps(t *testing.T) {
	g := NewGroup("apps", Limits{MaxOps: 3})
	for i := 0; i < 3; i++ {
		if err := g.Charge("write", 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Charge("write", 10); !errors.Is(err, ErrLimit) {
		t.Errorf("4th op = %v", err)
	}
	u := g.Usage()
	if u.Ops != 3 || u.Bytes != 30 || u.Denied != 1 || u.PerOp["write"] != 3 {
		t.Errorf("usage = %+v", u)
	}
}

func TestGroupMaxBytes(t *testing.T) {
	g := NewGroup("apps", Limits{MaxBytes: 100})
	if err := g.Charge("write", 90); err != nil {
		t.Fatal(err)
	}
	if err := g.Charge("write", 20); !errors.Is(err, ErrLimit) {
		t.Errorf("over-bytes = %v", err)
	}
	if err := g.Charge("write", 10); err != nil {
		t.Errorf("exact fit = %v", err)
	}
}

func TestGroupRateLimit(t *testing.T) {
	g := NewGroup("apps", Limits{OpsPerSecond: 10, Burst: 2})
	now := time.Unix(0, 0)
	g.SetClock(func() time.Time { return now })
	if err := g.Charge("op", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Charge("op", 0); err != nil {
		t.Fatal(err)
	}
	// Bucket empty.
	if err := g.Charge("op", 0); !errors.Is(err, ErrLimit) {
		t.Errorf("rate exceeded = %v", err)
	}
	// Refill after 100ms at 10/s = 1 token.
	now = now.Add(100 * time.Millisecond)
	if err := g.Charge("op", 0); err != nil {
		t.Errorf("after refill = %v", err)
	}
}

func TestGroupHierarchy(t *testing.T) {
	parent := NewGroup("all", Limits{MaxOps: 5})
	a := parent.NewChild("a", Limits{})
	b := parent.NewChild("b", Limits{MaxOps: 2})
	if a.Name() != "all/a" {
		t.Errorf("name = %s", a.Name())
	}
	// b hits its own limit first.
	_ = b.Charge("x", 0)
	_ = b.Charge("x", 0)
	if err := b.Charge("x", 0); !errors.Is(err, ErrLimit) {
		t.Error("child limit not enforced")
	}
	// a inherits the parent's remaining budget (5-2=3).
	for i := 0; i < 3; i++ {
		if err := a.Charge("x", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Charge("x", 0); !errors.Is(err, ErrLimit) {
		t.Error("parent limit not enforced through child")
	}
	if parent.Usage().Ops != 5 {
		t.Errorf("parent ops = %d", parent.Usage().Ops)
	}
}

func TestNamespaceEnterConfinesToView(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	root := y.Root()
	if err := root.Mkdir("/views/tenant-a", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := yancfs.CreateSwitch(root, "/views/tenant-a", "vsw1"); err != nil {
		t.Fatal(err)
	}
	if _, err := yancfs.CreateSwitch(root, "/", "real1"); err != nil {
		t.Fatal(err)
	}
	// Grant the tenant write access inside its view.
	if err := root.Chown("/views/tenant-a/switches/vsw1/flows", 4001, 4001); err != nil {
		t.Fatal(err)
	}
	ns := Namespace{
		Name: "tenant-a-app",
		Cred: vfs.Cred{UID: 4001, GID: 4001},
		Root: "/views/tenant-a",
	}
	p, err := ns.Enter(y.VFS())
	if err != nil {
		t.Fatal(err)
	}
	// The app sees its view as the root.
	if !p.IsDir("/switches/vsw1") {
		t.Fatal("view switch invisible inside namespace")
	}
	// The real network does not exist for it.
	if p.Exists("/switches/real1") || p.Exists("/../switches/real1") {
		t.Fatal("namespace escaped to master region")
	}
	// It can operate inside its granted subtree.
	if err := p.Mkdir("/switches/vsw1/flows/f1", 0o755); err != nil {
		t.Fatalf("tenant flow mkdir: %v", err)
	}
}

func TestNamespaceWithGroupMetersVFSOps(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(y.VFS())
	g := m.CreateGroup("tenant", Limits{MaxOps: 4})
	p, err := m.Launch(Namespace{Name: "app", Cred: vfs.Root, Group: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/hosts/h1", 0o755); err != nil { // 1 op
		t.Fatal(err)
	}
	if err := p.WriteString("/hosts/h1/ip", "10.0.0.1"); err != nil { // open+write
		t.Fatal(err)
	}
	// Budget is exhausted mid-operation eventually.
	var lastErr error
	for i := 0; i < 10 && lastErr == nil; i++ {
		_, lastErr = p.ReadFile("/hosts/h1/ip")
	}
	if !errors.Is(lastErr, vfs.ErrQuota) {
		t.Errorf("expected quota error, got %v", lastErr)
	}
	if g.Usage().Ops == 0 || g.Usage().Denied == 0 {
		t.Errorf("usage = %+v", g.Usage())
	}
	if got := m.List(); len(got) != 1 || got[0] != "app" {
		t.Errorf("list = %v", got)
	}
	if _, ok := m.Of("app"); !ok {
		t.Error("Of failed")
	}
	if m.Group("tenant") != g {
		t.Error("group lookup failed")
	}
}

func TestEnterMissingRootFails(t *testing.T) {
	fs := vfs.New()
	_, err := Namespace{Name: "x", Root: "/nope"}.Enter(fs)
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestLaunchPublishesProcApps(t *testing.T) {
	fs := vfs.New()
	root := fs.RootProc()
	if err := root.MkdirAll("/.proc/apps", 0o555); err != nil {
		t.Fatal(err)
	}
	if err := root.MkdirAll("/view", 0o777); err != nil {
		t.Fatal(err)
	}

	m := NewManager(fs)
	g := m.CreateGroup("tenant", Limits{})
	p, err := m.Launch(Namespace{
		Name: "fw", Cred: vfs.Cred{UID: 7, GID: 8}, Root: "/view", Group: g,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/state", "up"); err != nil {
		t.Fatal(err)
	}

	s, err := root.ReadString("/.proc/apps/fw")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"name fw", "uid 7", "gid 8", "root /view", "group tenant"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	// Accounting is live: the write above must show up on re-read.
	if !strings.Contains(s, "op.write 1") {
		t.Fatalf("write not accounted:\n%s", s)
	}
	// The file is a metric, not writable state.
	if err := fs.Proc(vfs.Cred{UID: 7, GID: 8}).WriteString("/.proc/apps/fw", "x"); err == nil {
		t.Fatal("app overwrote its own proc file")
	}
}

func TestLaunchWithoutProcTreeIsFine(t *testing.T) {
	fs := vfs.New()
	m := NewManager(fs)
	if _, err := m.Launch(Namespace{Name: "bare", Cred: vfs.Root}); err != nil {
		t.Fatal(err)
	}
	if fs.RootProc().Exists("/.proc/apps/bare") {
		t.Fatal("proc file appeared without an installed tree")
	}
}

// TestGroupBilledBytesReturned pins what a read costs an app's cgroup:
// the bytes it got back, not the buffer the read was handed. Reading a
// 2-byte priority file used to bill 8,192 bytes and 3 ops (a 4 KB
// staging buffer charged in full, twice, the second time for the EOF
// round), so a 64-byte MaxBytes budget refused the first read. Both
// whole-file read paths are covered: the handle-free one an unconfined
// app takes, and the open-handle one behind a chroot.
func TestGroupBilledBytesReturned(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := y.Root().Mkdir("/hosts/h1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := y.Root().WriteString("/hosts/h1/priority", "7\n"); err != nil {
		t.Fatal(err)
	}
	m := NewManager(y.VFS())
	for _, tc := range []struct {
		name, root, path string
		opsPerRead       uint64 // open + read, + the EOF round on a handle
	}{
		{"unconfined", "", "/hosts/h1/priority", 2},
		{"chroot", "/hosts", "/h1/priority", 3},
	} {
		g := m.CreateGroup(tc.name, Limits{MaxBytes: 64})
		p, err := m.Launch(Namespace{Name: tc.name, Cred: vfs.Root, Root: tc.root, Group: g})
		if err != nil {
			t.Fatal(err)
		}
		const reads = 10
		for i := 0; i < reads; i++ {
			if s, err := p.ReadString(tc.path); err != nil || s != "7" {
				t.Fatalf("%s: read %d = %q, %v", tc.name, i, s, err)
			}
		}
		u := g.Usage()
		if u.Bytes != 2*reads || u.Ops != tc.opsPerRead*reads || u.PerOp["open"] != reads || u.Denied != 0 {
			t.Errorf("%s: usage after %d reads of a 2-byte file = %+v", tc.name, reads, u)
		}
		// The budget is real: 64 bytes admit 32 such reads, not 33.
		var lastErr error
		for i := reads; i < 33 && lastErr == nil; i++ {
			_, lastErr = p.ReadFile(tc.path)
		}
		if !errors.Is(lastErr, vfs.ErrQuota) || g.Usage().Bytes != 64 {
			t.Errorf("%s: 33rd read = %v with %d bytes billed, want a quota error at 64", tc.name, lastErr, g.Usage().Bytes)
		}
	}
}

// TestGroupBilledSameByReference pins what resolving a directory once
// costs an app's cgroup: nothing. One flow's worth of file I/O — probe
// the directory, write three fields, probe and remove a stale one, list,
// read the version back — is billed the same ops, the same bytes and the
// same per-op split whether every call walks from the root or names its
// file relative to one vfs.DirRef, unconfined and behind a chroot; and a
// budget runs out at the same call either way.
func TestGroupBilledSameByReference(t *testing.T) {
	for _, root := range []string{"", "/switches"} {
		var usages [2]Usage
		var denied [2]int
		for way := range usages {
			y, err := yancfs.New()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := yancfs.CreateSwitch(y.Root(), "/", "sw1"); err != nil {
				t.Fatal(err)
			}
			if err := y.Root().Mkdir("/switches/sw1/flows/f", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := y.Root().WriteString("/switches/sw1/flows/f/match.tp_src", "99\n"); err != nil {
				t.Fatal(err)
			}
			m := NewManager(y.VFS())
			g := m.CreateGroup("tenant", Limits{MaxOps: 13})
			p, err := m.Launch(Namespace{Name: "app", Cred: vfs.Root, Root: root, Group: g})
			if err != nil {
				t.Fatal(err)
			}
			dir := strings.TrimPrefix("/switches/sw1/flows/f", root)
			fields := [][2]string{{"match.dl_type", "0x0800\n"}, {"priority", "5\n"}, {"version", "1\n"}}
			var calls []func() error
			if way == 0 {
				calls = append(calls, func() error { _, err := p.Stat(dir); return err })
				for _, f := range fields {
					calls = append(calls, func() error { return p.WriteString(dir+"/"+f[0], f[1]) })
				}
				calls = append(calls,
					func() error { _, err := p.Stat(dir + "/match.tp_src"); return err },
					func() error { return p.Remove(dir + "/match.tp_src") },
					func() error { _, err := p.ReadDir(dir); return err },
					func() error { _, err := p.ReadFile(dir + "/version"); return err },
					func() error { _, err := p.ReadFile(dir + "/priority"); return err })
			} else {
				var ref vfs.DirRef
				calls = append(calls, func() (err error) { ref, err = p.DirRef(dir); return err })
				for _, f := range fields {
					calls = append(calls, func() error { return p.WriteFileAt(ref, f[0], []byte(f[1]), 0o644) })
				}
				calls = append(calls,
					func() error {
						if !p.ExistsAt(ref, "match.tp_src") {
							return vfs.ErrNotExist
						}
						return nil
					},
					func() error { return p.RemoveAt(ref, "match.tp_src") },
					func() error { _, err := p.ReadDirAt(ref, "."); return err },
					func() error { _, err := p.ReadFileAt(ref, "version"); return err },
					func() error { _, err := p.ReadFileAt(ref, "priority"); return err })
			}
			denied[way] = -1
			for i, call := range calls {
				if err := call(); err != nil {
					if !errors.Is(err, vfs.ErrQuota) {
						t.Fatalf("root %q, way %d, call %d: %v", root, way, i, err)
					}
					denied[way] = i
					break
				}
			}
			usages[way] = g.Usage()
		}
		byPath, byRef := usages[0], usages[1]
		if byPath.Ops != byRef.Ops || byPath.Bytes != byRef.Bytes || byPath.Denied != byRef.Denied || !reflect.DeepEqual(byPath.PerOp, byRef.PerOp) {
			t.Errorf("root %q: billed by path %+v, by reference %+v", root, byPath, byRef)
		}
		if denied[0] != denied[1] || denied[0] < 0 {
			t.Errorf("root %q: the 13-op budget ran out at call %d by path, %d by reference; want the same call", root, denied[0], denied[1])
		}
	}
}
