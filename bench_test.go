package yanc

// The experiment harness: one benchmark per experiment id of DESIGN.md
// §4, regenerating the series EXPERIMENTS.md quotes. Counts go out
// through b.ReportMetric beside the timing, so
//
//	go test -bench E12 -benchtime 1x .
//
// prints the E12 table. E16's table is the -v log of
// dfs.TestChaosReplicaFailoverExactlyOnce and E17's is `go run
// ./cmd/yancload -json`. Timing is the series; what must hold is a test.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"yanc/internal/apps"
	"yanc/internal/benchutil"
	"yanc/internal/dfs"
	"yanc/internal/libyanc"
	"yanc/internal/openflow"
	"yanc/internal/switchsim"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// must is for set-up and calls whose error a run cannot survive.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func ok(tb testing.TB, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkE1SemanticMkdir is §3.1: a plain mkdir against a switch mkdir
// that materializes the Figure 3 skeleton (entries) in the same call.
func BenchmarkE1SemanticMkdir(b *testing.B) {
	for _, tc := range []struct{ name, dir string }{{"plain", "/hosts/h"}, {"switch", "/switches/s"}} {
		b.Run(tc.name, func(b *testing.B) {
			p := must(yancfs.New()).Root()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok(b, p.Mkdir(fmt.Sprint(tc.dir, i), 0o755))
			}
			b.StopTimer()
			b.ReportMetric(float64(len(must(p.ReadDir(tc.dir+"0")))), "entries")
		})
	}
}

// BenchmarkE2FlowCommit is §3.4 on a one-switch rig: a 6-field flow
// committed once through its version file, against a commit after every
// field write; flowmods/flow is what reached the switch. Each commit gets
// 20 ms to reach the switch, so ns/op is mostly that wait.
func BenchmarkE2FlowCommit(b *testing.B) {
	for _, perField := range []bool{false, true} {
		name := "version-commit"
		if perField {
			name = "per-field-commit"
		}
		b.Run(name, func(b *testing.B) {
			r := must(benchutil.NewLinearRig(1, openflow.Version10))
			defer r.Close()
			p, sw := r.Y.Root(), r.Net.Switch(1)
			before := sw.FlowModCount()
			for i := 0; i < b.N; i++ {
				flow, spec := fmt.Sprintf("/switches/sw1/flows/f%d", i), benchutil.SampleFlowSpec(i)
				if !perField {
					must(yancfs.WriteFlow(p, flow, spec))
					time.Sleep(20 * time.Millisecond)
					continue
				}
				ok(b, p.Mkdir(flow, 0o755))
				for _, f := range spec.Match.SortedFieldNames() {
					fld, _ := openflow.FieldByName(f)
					ok(b, p.WriteString(flow+"/match."+f, spec.Match.FieldString(fld)+"\n"))
					must(yancfs.CommitFlow(p, flow))
					time.Sleep(20 * time.Millisecond)
				}
			}
			b.ReportMetric(float64(sw.FlowModCount()-before)/float64(b.N), "flowmods/flow")
		})
	}
}

// BenchmarkE3PacketInFanout is E3 and E15 (§3.5): one op delivers a burst
// of batch 128-byte packet-ins — DeliverPacketIn at batch 1, the driver's
// DeliverPacketInBatch above — to subs subscriber buffers. The file
// system is rebuilt every 960 messages, below the 1024-message buffer
// bound, so no drop-oldest churn enters the numbers. copied-B/msg stays
// flat in subscribers; linked-B/msg grows with them.
func BenchmarkE3PacketInFanout(b *testing.B) {
	for _, subs := range []int{1, 2, 4, 8, 16} {
		for _, batch := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("subs-%d/batch-%d", subs, batch), func(b *testing.B) {
				pis := make([]*openflow.PacketIn, batch)
				for i := range pis {
					pis[i] = &openflow.PacketIn{InPort: 1, TotalLen: 128, Data: make([]byte, 128)}
				}
				var y *yancfs.FS
				for i := 0; i < b.N; i++ {
					if i%(960/batch) == 0 {
						b.StopTimer()
						y = must(yancfs.New())
						for s := 0; s < subs; s++ {
							_, _, err := yancfs.Subscribe(y.Root(), "/", fmt.Sprintf("app%d", s))
							ok(b, err)
						}
						b.StartTimer()
					}
					if batch == 1 {
						ok(b, y.DeliverPacketIn("/", "sw1", pis[0]))
					} else {
						ok(b, y.DeliverPacketInBatch("/", "sw1", pis))
					}
				}
				b.StopTimer()
				y.VFS().SyncWatches()
				s := y.EventStats()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/msg")
				b.ReportMetric(float64(s.CopiedBytes)/float64(s.Messages), "copied-B/msg")
				b.ReportMetric(float64(s.LinkedBytes)/float64(s.Messages), "linked-B/msg")
			})
		}
	}
}

// BenchmarkE4DriverTranslate measures wire encode+decode per protocol
// version (§4.1).
func BenchmarkE4DriverTranslate(b *testing.B) {
	spec := benchutil.SampleFlowSpec(7)
	fm := &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: spec.Match, Priority: spec.Priority,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, Actions: spec.Actions,
		Header: openflow.Header{Xid: 1},
	}
	for _, tc := range []struct {
		name  string
		codec openflow.Codec
	}{
		{"of10", openflow.Codec10{}},
		{"of13", openflow.Codec13{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var enc []byte
			for i := 0; i < b.N; i++ {
				enc = must(tc.codec.Encode(fm))
				must(tc.codec.Decode(enc))
			}
			b.ReportMetric(float64(len(enc)), "B/flowmod")
		})
	}
}

// BenchmarkE5ViewTranslation is §4.2 on a two-switch rig: a flow written
// to the master directly, against one written through a slicer view
// until its translated master twin commits.
func BenchmarkE5ViewTranslation(b *testing.B) {
	r := must(benchutil.NewLinearRig(2, openflow.Version10))
	defer r.Close()
	p := r.Y.Root()
	filter, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6")
	sl := apps.NewSlicer(r.Y, "/", "bench", filter, []string{"sw1", "sw2"})
	ok(b, sl.Create())
	ok(b, sl.Start())
	defer sl.Stop()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(yancfs.WriteFlow(p, fmt.Sprintf("/switches/sw1/flows/direct%d", i), benchutil.SampleFlowSpec(i)))
		}
	})
	b.Run("view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(yancfs.WriteFlow(p, fmt.Sprintf("/views/bench/switches/sw1/flows/v%d", i), benchutil.SampleFlowSpec(i)))
			master := fmt.Sprintf("/switches/sw1/flows/slice-bench-v%d", i)
			for {
				if v, err := yancfs.FlowVersion(p, master); err == nil && v >= 1 {
					break
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	})
}

// BenchmarkE6Discovery is §4.3: one LLDP discovery round on a k-switch
// line; links is what it found (a line has 2(k−1) directed links).
func BenchmarkE6Discovery(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("switches-%d", k), func(b *testing.B) {
			var links int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := must(benchutil.NewLinearRig(k, openflow.Version10))
				td := apps.NewTopod(r.Y.Root(), "/")
				b.StartTimer()
				ok(b, td.DiscoverOnce())
				b.StopTimer()
				links = len(must(apps.LoadTopology(r.Y.Root(), "/")).Links)
				td.Stop()
				r.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(links), "links")
		})
	}
}

// BenchmarkE8Watch measures the marginal cost a watch adds to a write
// (§5.2).
func BenchmarkE8Watch(b *testing.B) {
	for _, watched := range []bool{false, true} {
		name := "unwatched"
		if watched {
			name = "watched"
		}
		b.Run(name, func(b *testing.B) {
			p := vfs.New().RootProc()
			ok(b, p.Mkdir("/d", 0o755))
			if watched {
				w := must(p.AddWatch("/d", vfs.OpWrite, vfs.BufferSize(64)))
				defer w.Close()
				go func() {
					for range w.C {
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok(b, p.WriteString("/d/f", "x"))
			}
		})
	}
}

// TestE8EventCounts gates what one install_ring op — a PutFlowTx and a
// Remove of the flow, each in its own transaction — costs the watch path
// under the driver's subscription (driver.newMux): the events the file
// system builds and queues, and the events the watch is sent. With every
// name taken it was 44 queued and 28 delivered; the driver takes two
// names, and the field-file events nobody takes are never built.
func TestE8EventCounts(t *testing.T) {
	y := must(yancfs.New())
	fs, p := y.VFS(), y.Root()
	ok(t, p.Mkdir("/switches/sw1", 0o755))
	w := must(p.AddWatch(yancfs.DirSwitches, vfs.OpWrite|vfs.OpRemove|vfs.OpRename, vfs.Recursive(),
		vfs.Files(append(yancfs.FlowEventFiles(), "config.port_down")...)))
	defer w.Close()
	before, _, _ := fs.DispatchStats()
	const flow = "/switches/sw1/flows/f"
	ok(t, fs.WithTx(func(tx *vfs.Tx) error {
		_, err := yancfs.PutFlowTx(tx, flow, benchutil.SampleFlowSpec(1))
		return err
	}))
	ok(t, fs.WithTx(func(tx *vfs.Tx) error { return tx.Remove(flow) }))
	fs.SyncWatches()
	after, _, _ := fs.DispatchStats()
	queued, delivered := after-before, len(w.C)
	t.Logf("per ring put + delete: %d events queued, %d delivered", queued, delivered)
	if queued > 5 || delivered > 4 {
		t.Fatalf("one put + delete queued %d events and delivered %d, want ≤ 5 and ≤ 4", queued, delivered)
	}
}

// BenchmarkE10Consistency measures one remote write per consistency mode
// through the distributed file system (§6).
func BenchmarkE10Consistency(b *testing.B) {
	for _, mode := range []dfs.Consistency{dfs.Strict, dfs.Eventual} {
		b.Run(mode.String(), func(b *testing.B) {
			srv := dfs.NewServer(must(yancfs.New()).VFS())
			addr := must(srv.Listen("127.0.0.1:0"))
			defer srv.Close()
			c := must(dfs.Mount(addr, vfs.Root, mode))
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok(b, c.WriteString(fmt.Sprintf("/hosts/h%d", i), "x"))
			}
			b.StopTimer()
			ok(b, c.Flush())
		})
	}
}

// BenchmarkE10Distributed is §6's distributed computation: one op is 64
// route jobs — read an 8-switch ring's topology through a dfs mount, BFS
// a path, write it back — spread over W strict mounts.
func BenchmarkE10Distributed(b *testing.B) {
	y := must(benchutil.NewFSOnlyRig(8))
	p := y.Root()
	for i := 1; i <= 8; i++ {
		a, z := fmt.Sprintf("/switches/sw%d/ports/3", i), fmt.Sprintf("/switches/sw%d/ports/2", i%8+1)
		ok(b, p.MkdirAll(a, 0o755))
		ok(b, p.MkdirAll(z, 0o755))
		ok(b, yancfs.SetPeer(p, a, z))
		ok(b, yancfs.SetPeer(p, z, a))
	}
	srv := dfs.NewServer(y.VFS())
	addr := must(srv.Listen("127.0.0.1:0"))
	defer srv.Close()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			mounts := make([]*dfs.Client, workers)
			for i := range mounts {
				mounts[i] = must(dfs.Mount(addr, vfs.Root, dfs.Strict))
				defer mounts[i].Close()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w, c := range mounts {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := w; j < 64; j += workers {
							if err := remoteRoute(c, j); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
		})
	}
}

// remoteRoute reads the topology over the mount, BFSes from sw1 to a
// job-dependent switch, and writes the path back.
func remoteRoute(c *dfs.Client, job int) error {
	switches, err := c.ReadDir("/switches")
	if err != nil {
		return err
	}
	links := make(map[string][]string)
	for _, sw := range switches {
		ports, _ := c.ReadDir("/switches/" + sw.Name + "/ports")
		for _, port := range ports {
			if tgt, err := c.Readlink("/switches/" + sw.Name + "/ports/" + port.Name + "/peer"); err == nil {
				if parts := strings.Split(strings.Trim(tgt, "/"), "/"); len(parts) >= 2 {
					links[sw.Name] = append(links[sw.Name], parts[1])
				}
			}
		}
	}
	dst := fmt.Sprintf("sw%d", 1+job%len(switches))
	visited := map[string]bool{"sw1": true}
	queue := [][]string{{"sw1"}}
	var path []string
	for len(queue) > 0 && path == nil {
		cur := queue[0]
		queue = queue[1:]
		if cur[len(cur)-1] == dst {
			path = cur
		}
		next := links[cur[len(cur)-1]]
		sort.Strings(next)
		for _, nb := range next {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, append(append([]string(nil), cur...), nb))
			}
		}
	}
	return c.WriteString(fmt.Sprintf("/hosts/route-%d", job), strings.Join(path, ","))
}

// BenchmarkE11ReactiveSetup is §8's router on a discovered 3-switch
// line: miss is one fresh flow's table miss → router → file writes →
// flow-mods → delivery; burst is cbench's shape, 200 distinct flows sent
// back to back. The router keeps every flow (IdleTimeout 0), so every
// 1,000 flows, with the timer stopped, the flows are removed and the
// switches' tables are let drain: a miss costs the same whatever b.N.
func BenchmarkE11ReactiveSetup(b *testing.B) {
	rig := func(b *testing.B) (r *benchutil.Rig, h1, h3 *switchsim.Host) {
		r = must(benchutil.NewLinearRig(3, openflow.Version10))
		b.Cleanup(r.Close)
		td := apps.NewTopod(r.Y.Root(), "/")
		ok(b, td.DiscoverOnce())
		td.Stop()
		rt := apps.NewRouter(r.Y.Root(), "/")
		rt.IdleTimeout = 0 // flows persist; every packet below is a new flow
		ok(b, rt.Start())
		b.Cleanup(rt.Stop)
		return r, r.Hosts[0], r.Hosts[2]
	}
	for _, burst := range []int{1, 200} {
		name := "miss"
		if burst > 1 {
			name = "burst"
		}
		b.Run(name, func(b *testing.B) {
			r, h1, h3 := rig(b)
			base := flowState(b, r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if done := i * burst; done > 0 && done%1000 == 0 {
					b.StopTimer()
					clearFlows(b, r, base)
					h1.ClearReceived()
					h3.ClearReceived()
					b.StartTimer()
				}
				want := h3.RxCount() + burst
				for k := 0; k < burst; k++ {
					h1.SendTCP(h3, uint16(1024+(i*burst+k)%60000), 80, nil)
				}
				if !h3.WaitFor(func(frames [][]byte) bool { return len(frames) >= want }, 30*time.Second) {
					b.Fatalf("round %d: packets lost", i)
				}
			}
			b.ReportMetric(float64(b.N*burst)/b.Elapsed().Seconds(), "flows/s")
		})
	}
}

// flowTables is what the switches hold: the flows under /switches by
// path, and each switch's table size.
type flowTables struct {
	paths map[string]bool
	sizes []int
}

// flowState reads the flows the rig holds now.
func flowState(b *testing.B, r *benchutil.Rig) flowTables {
	p := r.Y.Root()
	st := flowTables{paths: map[string]bool{}}
	for _, sw := range must(p.ReadDir("/switches")) {
		dir := "/switches/" + sw.Name
		for _, f := range must(yancfs.ListFlows(p, dir)) {
			st.paths[dir+"/flows/"+f] = true
		}
	}
	for _, sw := range r.Net.Switches() {
		st.sizes = append(st.sizes, sw.FlowCount())
	}
	return st
}

// clearFlows removes every flow not in base and waits until each
// switch's table is back to its size there.
func clearFlows(b *testing.B, r *benchutil.Rig, base flowTables) {
	p := r.Y.Root()
	for path := range flowState(b, r).paths {
		if !base.paths[path] {
			ok(b, yancfs.DeleteFlow(p, path))
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for i, sw := range r.Net.Switches() {
		for sw.FlowCount() != base.sizes[i] {
			if time.Now().After(deadline) {
				b.Fatalf("switch %d holds %d flows, want %d", sw.DPID, sw.FlowCount(), base.sizes[i])
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// BenchmarkE12FlowPushScale measures the §8.1 headline: pushing one flow
// to each of N switches through per-field file I/O; b.ReportMetric
// carries the counted syscalls per switch.
func BenchmarkE12FlowPushScale(b *testing.B) {
	for _, k := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("switches-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				y := must(benchutil.NewFSOnlyRig(k))
				p := y.Root()
				before := y.VFS().Stats().Total()
				b.StartTimer()
				for s := 1; s <= k; s++ {
					must(yancfs.WriteFlow(p, fmt.Sprintf("/switches/sw%d/flows/f", s), benchutil.SampleFlowSpec(s)))
				}
				b.StopTimer()
				b.ReportMetric(float64(y.VFS().Stats().Total()-before)/float64(k), "syscalls/switch")
				b.StartTimer()
			}
		})
	}
}

// appRig is E14's shared file system: 8 switches, one packet-in
// subscriber, and a flow per app.
func appRig(tb testing.TB, workers int) *yancfs.FS {
	y := must(benchutil.NewFSOnlyRig(8))
	_, w, err := yancfs.Subscribe(y.Root(), "/", "e14app")
	ok(tb, err)
	tb.Cleanup(w.Close)
	go func() {
		for range w.C {
		}
	}()
	for a := 0; a < workers; a++ {
		must(yancfs.WriteFlow(y.Root(), fmt.Sprintf("/switches/sw%d/flows/app%d", 1+a%8, a), benchutil.SampleFlowSpec(a)))
	}
	return y
}

// runApps runs workers copies of E14's mixed app loop side by side, rounds
// each: rewrite a match field and commit, stat the switch, list its flow
// table, and every 32nd round take a packet-in.
func runApps(y *yancfs.FS, workers, rounds int) error {
	errs := make(chan error, workers)
	for a := 0; a < workers; a++ {
		go func() {
			p := y.Root()
			sw := fmt.Sprintf("/switches/sw%d", 1+a%8)
			flow := fmt.Sprintf("%s/flows/app%d", sw, a)
			pi := &openflow.PacketIn{InPort: 1, TotalLen: 64, Data: make([]byte, 64)}
			for i := 0; i < rounds; i++ {
				err := p.WriteString(flow+"/match.nw_src", fmt.Sprintf("10.0.%d.%d\n", a, i%250))
				if err == nil {
					_, err = yancfs.CommitFlow(p, flow)
				}
				if err == nil {
					_, err = p.Stat(sw + "/id")
				}
				if err == nil {
					_, err = p.ReadDir(sw + "/flows")
				}
				if err == nil && i%32 == 0 {
					err = y.DeliverPacketIn("/", "sw1", pi)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for a := 0; a < workers; a++ {
		if err := <-errs; first == nil {
			first = err
		}
	}
	return first
}

// lockfreeShare is the share of read-path resolutions between two
// snapshots that the lock-free walk served (DESIGN.md §8).
func lockfreeShare(before, after vfs.LockStats) float64 {
	lf, fb := after.ResolveLockfree-before.ResolveLockfree, after.ResolveFallback-before.ResolveFallback
	return float64(lf) / float64(lf+fb)
}

// BenchmarkE14ConcurrentApps is E14: b.N rounds of the mixed app loop
// split over N workers on one file system, reported as aggregate counted
// VFS calls per second and the lock-free share of their resolutions.
func BenchmarkE14ConcurrentApps(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			y := appRig(b, workers)
			calls, locks := y.VFS().Stats().Total(), y.VFS().LockStats()
			b.ResetTimer()
			ok(b, runApps(y, workers, b.N/workers+1))
			b.StopTimer()
			b.ReportMetric(float64(y.VFS().Stats().Total()-calls)/b.Elapsed().Seconds(), "vfs-calls/s")
			b.ReportMetric(100*lockfreeShare(locks, y.VFS().LockStats()), "lockfree-%")
		})
	}
}

// TestStressConcurrentAppsResolveLockFree is E14's property, counted:
// eight apps running the mixed loop side by side get at least 95 % of
// their path resolutions from the lock-free walk, on any core count.
func TestStressConcurrentAppsResolveLockFree(t *testing.T) {
	y := appRig(t, 8)
	locks := y.VFS().LockStats()
	ok(t, runApps(y, 8, 200))
	if share := lockfreeShare(locks, y.VFS().LockStats()); share < 0.95 {
		t.Fatalf("lock-free walk served %.1f%% of the resolutions, want >= 95%%", 100*share)
	}
}

// BenchmarkE18RingPush is E18's push: one flow to each of k switches
// through per-field file I/O (file) or a FlowRing (ring), from prebuilt
// work so both time the push alone. vfs-calls/switch is what the push
// counted, drains how many transactions the ring committed.
func BenchmarkE18RingPush(b *testing.B) {
	for _, k := range []int{10, 100, 1000} {
		work := make([]libyanc.SQE, k)
		for i := range work {
			work[i] = libyanc.SQE{Op: libyanc.OpPut, Path: fmt.Sprintf("/switches/sw%d/flows/f", i+1), Spec: benchutil.SampleFlowSpec(i + 1)}
		}
		for _, arm := range []string{"file", "ring"} {
			b.Run(fmt.Sprintf("%s/switches-%d", arm, k), func(b *testing.B) {
				var calls, drains uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					y := must(benchutil.NewFSOnlyRig(k))
					r := libyanc.New(y).NewFlowRing(libyanc.RingConfig{SQDepth: 1024})
					before := y.VFS().Stats().Total()
					b.StartTimer()
					if arm == "file" {
						for _, w := range work {
							must(yancfs.WriteFlow(y.Root(), w.Path, w.Spec))
						}
					} else {
						for _, w := range work {
							ok(b, r.Submit(w))
						}
						ok(b, r.Flush())
					}
					b.StopTimer()
					calls += y.VFS().Stats().Total() - before
					drains += r.Stats().Drains
					ok(b, r.Close())
					b.StartTimer()
				}
				b.ReportMetric(float64(calls)/float64(b.N*k), "vfs-calls/switch")
				if arm == "ring" {
					b.ReportMetric(float64(drains)/float64(b.N), "drains")
				}
			})
		}
	}
}

// BenchmarkVFSPathWalk is the supporting ablation for path resolution
// cost at increasing depth.
func BenchmarkVFSPathWalk(b *testing.B) {
	p := vfs.New().RootProc()
	deep := "/a/b/c/d/e/f/g/h"
	ok(b, p.MkdirAll(deep, 0o755))
	ok(b, p.WriteString(deep+"/file", "x"))
	for _, tc := range []struct{ name, path string }{
		{"depth-1", "/a"},
		{"depth-8", deep + "/file"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				must(p.Stat(tc.path))
			}
		})
	}
}
