package dfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// startServer exports a fresh yanc fs and returns its address plus the fs.
func startServer(t *testing.T) (string, *yancfs.FS) {
	t.Helper()
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(y.VFS())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return addr, y
}

func mount(t *testing.T, addr string, mode Consistency) *Client {
	t.Helper()
	c, err := Mount(addr, vfs.Root, mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRemoteBasicOps(t *testing.T) {
	addr, y := startServer(t)
	c := mount(t, addr, Strict)
	// mkdir through the mount triggers the yanc semantics server-side.
	if err := c.Mkdir("/switches/sw1", 0o755); err != nil {
		t.Fatal(err)
	}
	if !c.IsDir("/switches/sw1/flows") {
		t.Fatal("semantic mkdir did not run on the server")
	}
	if err := c.WriteString("/switches/sw1/flows-note", "hello\n"); err != nil {
		t.Fatal(err)
	}
	if s, err := c.ReadString("/switches/sw1/flows-note"); err != nil || s != "hello" {
		t.Fatalf("read back = %q %v", s, err)
	}
	// The write is visible locally on the server too.
	if s, _ := y.Root().ReadString("/switches/sw1/flows-note"); s != "hello" {
		t.Errorf("server-side content = %q", s)
	}
	entries, err := c.ReadDir("/switches/sw1")
	if err != nil || len(entries) == 0 {
		t.Fatalf("readdir = %v %v", entries, err)
	}
	st, err := c.Stat("/switches/sw1")
	if err != nil || !st.IsDir() {
		t.Fatalf("stat = %+v %v", st, err)
	}
	// Errors keep their identity across the wire.
	if _, err := c.ReadFile("/does/not/exist"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("remote ENOENT = %v", err)
	}
	if err := c.Mkdir("/switches/sw1", 0o755); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("remote EEXIST = %v", err)
	}
}

func TestRemoteSymlinkRenameGlobXattr(t *testing.T) {
	addr, _ := startServer(t)
	c := mount(t, addr, Strict)
	if err := c.Mkdir("/switches/sw1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/switches/sw1/ports/1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/switches/sw2", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/switches/sw2/ports/2", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Symlink("/switches/sw2/ports/2", "/switches/sw1/ports/1/peer"); err != nil {
		t.Fatal(err)
	}
	if tgt, err := c.Readlink("/switches/sw1/ports/1/peer"); err != nil || tgt != "/switches/sw2/ports/2" {
		t.Fatalf("readlink = %q %v", tgt, err)
	}
	// peer validation happens server-side.
	if err := c.Symlink("/hosts", "/switches/sw2/ports/2/peer"); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("invalid peer over dfs = %v", err)
	}
	if err := c.Rename("/switches/sw1", "/switches/edge"); err != nil {
		t.Fatal(err)
	}
	if !c.IsDir("/switches/edge/ports/1") {
		t.Fatal("rename lost structure")
	}
	got, err := c.Glob("/switches/*/ports")
	if err != nil || len(got) != 2 {
		t.Fatalf("glob = %v %v", got, err)
	}
	if err := c.SetXattr("/switches/edge", "user.note", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.GetXattr("/switches/edge", "user.note"); err != nil || string(v) != "x" {
		t.Fatalf("xattr = %q %v", v, err)
	}
	names, err := c.ListXattr("/switches/edge")
	if err != nil || len(names) != 1 {
		t.Fatalf("listxattr = %v %v", names, err)
	}
	if err := c.RemoveXattr("/switches/edge", "user.note"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetXattr("/switches/edge", "user.note"); !errors.Is(err, vfs.ErrNoAttr) {
		t.Errorf("removed xattr = %v", err)
	}
}

func TestRemoteCredentialEnforcement(t *testing.T) {
	addr, y := startServer(t)
	// Server-side: a root-owned 0755 tree.
	if err := y.Root().Mkdir("/hosts/protected", 0o755); err != nil {
		t.Fatal(err)
	}
	alice, err := Mount(addr, vfs.Cred{UID: 1000, GID: 1000}, Strict)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	if err := alice.Mkdir("/hosts/protected/x", 0o755); !errors.Is(err, vfs.ErrAccess) {
		t.Errorf("alice remote mkdir = %v", err)
	}
}

func TestRemoteWatchStreamsEvents(t *testing.T) {
	addr, y := startServer(t)
	c := mount(t, addr, Strict)
	w, err := c.AddWatch("/switches", vfs.OpCreate|vfs.OpWrite, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// A change made locally on the server is observed remotely — this is
	// what lets a remote app react to the master's state.
	if err := y.Root().Mkdir("/switches/sw9", 0o755); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-w.C:
		if ev.Op != vfs.OpCreate || ev.Path != "/switches/sw9" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no remote event")
	}
}

func TestEventualConsistencyFlushBarrier(t *testing.T) {
	addr, y := startServer(t)
	c := mount(t, addr, Eventual)
	// Eventual writes return immediately; a Flush barrier makes them
	// durable and visible.
	for i := 0; i < 50; i++ {
		if err := c.WriteString(fmt.Sprintf("/hosts/h%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := y.Root().ReadDir("/hosts")
	if err != nil || len(entries) != 50 {
		t.Fatalf("after flush: %d entries %v", len(entries), err)
	}
	// Order is preserved: a create followed by a dependent write works.
	if err := c.Mkdir("/views/v1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteString("/views/v1/owner", "tenant"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if s, _ := y.Root().ReadString("/views/v1/owner"); s != "tenant" {
		t.Errorf("ordered writes broke: %q", s)
	}
}

func TestConsistencyOverridePerSubtree(t *testing.T) {
	addr, y := startServer(t)
	c := mount(t, addr, Eventual)
	if err := c.Mkdir("/switches/critical", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Mark one subtree strict via the xattr mechanism (§6).
	if err := c.SetConsistency("/switches/critical", Strict); err != nil {
		t.Fatal(err)
	}
	// The xattr is persisted for other mounts to see.
	if v, err := y.Root().GetXattrString("/switches/critical", ConsistencyXattr); err != nil || v != "strict" {
		t.Fatalf("xattr = %q %v", v, err)
	}
	// A write inside the strict subtree is synchronous: visible without
	// Flush.
	if err := c.WriteString("/switches/critical/note", "now"); err != nil {
		t.Fatal(err)
	}
	if s, _ := y.Root().ReadString("/switches/critical/note"); s != "now" {
		t.Errorf("strict write lagged: %q", s)
	}
}

// TestStrictWriteOrderedAfterOwnEventualWrites pins a mount's program
// order across modes: a strict call must not overtake eventual writes
// the same mount queued before it (the SetXattr would find no directory).
func TestStrictWriteOrderedAfterOwnEventualWrites(t *testing.T) {
	addr, y := startServer(t)
	c := mount(t, addr, Eventual)
	for i := 0; i < 100; i++ {
		d := fmt.Sprintf("/hosts/d%d", i)
		if err := c.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := c.SetXattr(d, "user.tag", []byte("x")); err != nil {
			t.Fatalf("strict SetXattr after eventual Mkdir %s: %v", d, err)
		}
	}
	if v, err := y.Root().GetXattrString("/hosts/d99", "user.tag"); err != nil || v != "x" {
		t.Fatalf("xattr = %q %v", v, err)
	}
}

func TestParseConsistency(t *testing.T) {
	if m, err := ParseConsistency("eventual"); err != nil || m != Eventual {
		t.Errorf("eventual = %v %v", m, err)
	}
	if m, err := ParseConsistency("strict"); err != nil || m != Strict {
		t.Errorf("strict = %v %v", m, err)
	}
	if _, err := ParseConsistency("bogus"); err == nil {
		t.Error("bogus must fail")
	}
	if Strict.String() != "strict" || Eventual.String() != "eventual" {
		t.Error("string forms")
	}
}

func TestDistributedFlowWriteThroughMount(t *testing.T) {
	// The §6 proof of concept: a remote machine writes a flow through the
	// distributed file system; the master's flow directory updates.
	addr, y := startServer(t)
	c := mount(t, addr, Strict)
	if err := c.Mkdir("/switches/sw1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/switches/sw1/flows/remote-flow", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteString("/switches/sw1/flows/remote-flow/match.tp_dst", "80\n"); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteString("/switches/sw1/flows/remote-flow/match.dl_type", "0x0800\n"); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteString("/switches/sw1/flows/remote-flow/action.out", "2\n"); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteString("/switches/sw1/flows/remote-flow/priority", "10\n"); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteString("/switches/sw1/flows/remote-flow/version", "1\n"); err != nil {
		t.Fatal(err)
	}
	spec, err := yancfs.ReadFlow(y.Root(), "/switches/sw1/flows/remote-flow")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Match.Has(openflow.FieldTPDst) || spec.Match.TPDst != 80 || spec.Priority != 10 {
		t.Errorf("remote flow = %+v", spec)
	}
	v, err := yancfs.FlowVersion(y.Root(), "/switches/sw1/flows/remote-flow")
	if err != nil || v != 1 {
		t.Errorf("version = %d %v", v, err)
	}
}

func TestMultipleMountsSeeEachOther(t *testing.T) {
	addr, _ := startServer(t)
	c1 := mount(t, addr, Strict)
	c2 := mount(t, addr, Strict)
	if err := c1.WriteString("/hosts/shared", "from-c1"); err != nil {
		t.Fatal(err)
	}
	if s, err := c2.ReadString("/hosts/shared"); err != nil || s != "from-c1" {
		t.Fatalf("cross-mount read = %q %v", s, err)
	}
	// Watches on one mount see writes from the other.
	w, err := c2.AddWatch("/hosts", vfs.OpWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := c1.WriteString("/hosts/shared", "again"); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-w.C:
		if ev.Path != "/hosts/shared" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no cross-mount event")
	}
}

func TestConcurrentMountWrites(t *testing.T) {
	addr, y := startServer(t)
	const workers = 4
	const each = 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		c := mount(t, addr, Strict)
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				path := fmt.Sprintf("/hosts/w%d-%d", i, j)
				if err := c.WriteString(path, "x"); err != nil {
					t.Errorf("worker %d: %v", i, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	entries, err := y.Root().ReadDir("/hosts")
	if err != nil || len(entries) != workers*each {
		t.Fatalf("entries = %d %v", len(entries), err)
	}
}

func TestMountClosedErrors(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Mount(addr, vfs.Root, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteString("/x", "y"); !errors.Is(err, ErrClosed) && err == nil {
		t.Errorf("write after close = %v", err)
	}
	// Double close is safe.
	if err := c.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(y.VFS())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Mount(addr, vfs.Root, Strict)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.Close()
	// Calls now fail rather than hang.
	done := make(chan error, 1)
	go func() { _, err := c.ReadFile("/x"); done <- err }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("expected error after server close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call hung after server close")
	}
}
