package apps

import (
	"strconv"
	"sync"
	"testing"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// cacheRig is a linear network whose peer links topod has written, with
// the driver then detached so that nothing but the test and the router
// touches the tree: every vfs counter delta below is the router's.
func cacheRig(t *testing.T, k int) (*rig, *Router) {
	t.Helper()
	r := newLinearRig(t, k)
	td := NewTopod(r.y.Root(), "/")
	if err := td.DiscoverOnce(); err != nil {
		t.Fatal(err)
	}
	td.Stop()
	r.d.Close()
	r.y.VFS().SyncWatches()
	rt := NewRouter(r.y.Root(), "/")
	t.Cleanup(rt.Stop)
	return r, rt
}

// missAt is the table miss a switch reports for a frame src → dst.
func missAt(sw string, inPort uint32, src, dst ethernet.MAC) yancfs.PacketInEvent {
	frame := ethernet.Frame{Dst: dst, Src: src, Type: 0x1234, Payload: []byte("miss")}.Serialize()
	return yancfs.PacketInEvent{Switch: sw, BufferID: openflow.NoBuffer, InPort: inPort,
		TotalLen: uint16(len(frame)), Data: frame}
}

// lastOutput is the output port of the flow the router's latest path
// installed on sw.
func lastOutput(t *testing.T, r *rig, rt *Router, sw string) uint32 {
	t.Helper()
	path := rt.cache.switchPaths(sw).flowPrefix + strconv.FormatUint(rt.flowSeq, 10) + "-" + sw
	spec, err := yancfs.ReadFlow(r.y.Root(), path)
	if err != nil || len(spec.Actions) != 1 {
		t.Fatalf("flow %s: %+v %v", path, spec, err)
	}
	return spec.Actions[0].Port
}

// A miss on an unchanged tree costs the path's transaction and the
// packet-out, call for call: the topology and hosts/ are not read.
func TestRouterMissReadsNoTopology(t *testing.T) {
	r, rt := cacheRig(t, 2)
	fs, p := r.y.VFS(), r.y.Root()
	h1, h2 := r.hosts[0], r.hosts[1]
	ev := missAt("sw1", 1, h1.MAC, h2.MAC)
	rt.HandleMiss(ev) // builds the cache
	fs.SyncWatches()
	before := fs.Stats()
	rt.HandleMiss(ev)
	got := fs.Stats().Sub(before)
	if installs, floods := rt.Stats(); installs != 2 || floods != 0 {
		t.Fatalf("installs, floods = %d, %d", installs, floods)
	}

	// The same calls by hand, under names of the same depth.
	pf, err := openflow.ExtractFields(ev.Data, ev.InPort)
	if err != nil {
		t.Fatal(err)
	}
	put := func(tx *vfs.Tx, sw string, in, out uint32) error {
		m := openflow.ExactMatch(pf)
		m.Set |= openflow.FieldInPort
		m.InPort = in
		_, err := yancfs.PutFlowTx(tx, "/switches/"+sw+"/flows/hand-"+sw, yancfs.FlowSpec{
			Match: m, Priority: 100, IdleTimeout: 60, Actions: []openflow.Action{openflow.Output(out)},
		})
		return err
	}
	before = fs.Stats()
	err = p.WithTx(func(tx *vfs.Tx) error {
		for _, dir := range []string{"/switches/sw1/flows", "/switches/sw2/flows"} {
			if err := tx.CanCreate(dir); err != nil {
				return err
			}
		}
		if err := put(tx, "sw1", 1, 3); err != nil {
			return err
		}
		return put(tx, "sw2", 2, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = p.WriteFile("/switches/sw1/packet_out", append([]byte("out=3 in_port=1\n"), ev.Data...), 0o644)
	want := fs.Stats().Sub(before)
	if got != want {
		t.Errorf("second miss = %+v\npath transaction and packet-out = %+v", got, want)
	}
	// The transaction's steps are one call and count nothing, so a miss
	// lists nothing: not switches/, ports/ or hosts/.
	if got.ReadDirs != 0 {
		t.Errorf("second miss made %d ReadDirs, want 0", got.ReadDirs)
	}
	if rt.cache.rebuilds != 1 {
		t.Errorf("rebuilds = %d, want 1", rt.cache.rebuilds)
	}
}

// Removing a peer link, as topod does on link loss, reaches the next miss:
// with no other way round, the router floods instead of installing a path
// over the dead link.
func TestRouterCacheSeesLinkLoss(t *testing.T) {
	r, rt := cacheRig(t, 3)
	p := r.y.Root()
	h1, h3 := r.hosts[0], r.hosts[2]
	rt.HandleMiss(missAt("sw1", 1, h1.MAC, h3.MAC))
	if installs, floods := rt.Stats(); installs != 1 || floods != 0 {
		t.Fatalf("before link loss: installs, floods = %d, %d", installs, floods)
	}
	for _, link := range []string{"/switches/sw1/ports/3/peer", "/switches/sw2/ports/2/peer"} {
		if err := p.Remove(link); err != nil {
			t.Fatal(err)
		}
	}
	r.y.VFS().SyncWatches()
	rt.HandleMiss(missAt("sw1", 1, h1.MAC, h3.MAC))
	if installs, floods := rt.Stats(); installs != 1 || floods != 1 {
		t.Errorf("after link loss: installs, floods = %d, %d, want 1, 1", installs, floods)
	}
}

// Rewriting a host's port moves the end of the next path.
func TestRouterCacheSeesHostMove(t *testing.T) {
	r, rt := cacheRig(t, 2)
	h1, h2 := r.hosts[0], r.hosts[1]
	rt.HandleMiss(missAt("sw1", 1, h1.MAC, h2.MAC))
	if out := lastOutput(t, r, rt, "sw2"); out != 1 {
		t.Fatalf("path ends at sw2/%d, want sw2/1", out)
	}
	if err := r.y.Root().WriteString("/hosts/h2/port", "3\n"); err != nil {
		t.Fatal(err)
	}
	r.y.VFS().SyncWatches()
	rt.HandleMiss(missAt("sw1", 1, h1.MAC, h2.MAC))
	if out := lastOutput(t, r, rt, "sw2"); out != 3 {
		t.Errorf("after the move the path ends at sw2/%d, want sw2/3", out)
	}
}

// A cache watch that overflowed lost events; the next miss rebuilds.
func TestRouterCacheRebuildsOnOverflow(t *testing.T) {
	r, rt := cacheRig(t, 2)
	p := r.y.Root()
	h1, h2 := r.hosts[0], r.hosts[1]
	rt.HandleMiss(missAt("sw1", 1, h1.MAC, h2.MAC))
	for i := 0; i < 2*cacheWatchDepth; i++ {
		port := "1\n"
		if i == 2*cacheWatchDepth-1 {
			port = "3\n"
		}
		if err := p.WriteString("/hosts/h2/port", port); err != nil {
			t.Fatal(err)
		}
	}
	r.y.VFS().SyncWatches()
	overflowed := false
	for _, wi := range r.y.VFS().WatchInfos() {
		if wi.Path == "/hosts" && wi.Overflows > 0 {
			overflowed = true
		}
	}
	if !overflowed {
		t.Fatal("the hosts watch did not overflow")
	}
	rt.HandleMiss(missAt("sw1", 1, h1.MAC, h2.MAC))
	if rt.cache.rebuilds != 2 {
		t.Errorf("rebuilds = %d, want 2", rt.cache.rebuilds)
	}
	if out := lastOutput(t, r, rt, "sw2"); out != 3 {
		t.Errorf("path ends at sw2/%d, want sw2/3", out)
	}
}

// Stop removes the subscription and every cache watch.
func TestRouterStopClosesCacheWatches(t *testing.T) {
	r, rt := cacheRig(t, 2)
	fs := r.y.VFS()
	start := len(fs.WatchInfos())
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.HandleMiss(missAt("sw1", 1, r.hosts[0].MAC, r.hosts[1].MAC))
	// The subscription, switches/, hosts/ and one ports/ per switch.
	if n := len(fs.WatchInfos()) - start; n != 5 {
		t.Errorf("router placed %d watches, want 5", n)
	}
	for _, wi := range fs.WatchInfos() {
		if wi.Path == "/switches" && wi.Recursive {
			t.Error("recursive watch on switches/")
		}
	}
	rt.Stop()
	if n := len(fs.WatchInfos()); n != start {
		t.Errorf("after Stop: %d watches, want %d", n, start)
	}
}

// Misses from several goroutines share the cache and the render buffers;
// run under -race.
func TestRouterConcurrentMisses(t *testing.T) {
	r, rt := cacheRig(t, 3)
	h1, h3 := r.hosts[0], r.hosts[2]
	const workers, misses = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < misses; i++ {
				rt.HandleMiss(missAt("sw1", 1, h1.MAC, h3.MAC))
			}
		}()
	}
	wg.Wait()
	if installs, floods := rt.Stats(); installs != workers*misses || floods != 0 {
		t.Errorf("installs, floods = %d, %d, want %d, 0", installs, floods, workers*misses)
	}
	if rt.cache.rebuilds != 1 {
		t.Errorf("rebuilds = %d, want 1", rt.cache.rebuilds)
	}
}
