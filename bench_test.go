package yanc

// Benchmarks regenerating the experiment series of EXPERIMENTS.md. Each
// benchmark corresponds to an experiment id in DESIGN.md §4; cmd/yancbench
// prints the same series as tables. Run with:
//
//	go test -bench=. -benchmem .

import (
	"fmt"
	"testing"
	"time"

	"yanc/internal/apps"
	"yanc/internal/benchutil"
	"yanc/internal/dfs"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// BenchmarkE1SemanticMkdir measures typed object creation: one mkdir()
// materializing the whole switch skeleton (§3.1).
func BenchmarkE1SemanticMkdir(b *testing.B) {
	y, err := yancfs.New()
	if err != nil {
		b.Fatal(err)
	}
	p := y.Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Mkdir(fmt.Sprintf("/switches/s%d", i), 0o755); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2FlowCommit measures a full stage-and-commit flow write
// through file I/O (§3.4).
func BenchmarkE2FlowCommit(b *testing.B) {
	y, err := benchutil.NewFSOnlyRig(1)
	if err != nil {
		b.Fatal(err)
	}
	p := y.Root()
	spec := benchutil.SampleFlowSpec(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := yancfs.WriteFlow(p, fmt.Sprintf("/switches/sw1/flows/f%d", i), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3PacketInFanout measures event-directory fan-out per
// subscriber count (§3.5).
func BenchmarkE3PacketInFanout(b *testing.B) {
	for _, subs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("apps-%d", subs), func(b *testing.B) {
			y, err := yancfs.New()
			if err != nil {
				b.Fatal(err)
			}
			p := y.Root()
			for i := 0; i < subs; i++ {
				if _, _, err := yancfs.Subscribe(p, "/", fmt.Sprintf("app%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			pi := &openflow.PacketIn{InPort: 1, TotalLen: 128, Data: make([]byte, 128)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The batched form the driver's coalescing loop actually calls:
		// one transaction and one watch drain per burst of 8.
		b.Run(fmt.Sprintf("apps-%d-batch8", subs), func(b *testing.B) {
			y, err := yancfs.New()
			if err != nil {
				b.Fatal(err)
			}
			p := y.Root()
			for i := 0; i < subs; i++ {
				if _, _, err := yancfs.Subscribe(p, "/", fmt.Sprintf("app%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			batch := make([]*openflow.PacketIn, 8)
			for i := range batch {
				batch[i] = &openflow.PacketIn{InPort: 1, TotalLen: 128, Data: make([]byte, 128)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += len(batch) {
				if err := y.DeliverPacketInBatch("/", "sw1", batch); err != nil {
					b.Fatal(err)
				}
			}
		})
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
			for i := 0; i < b.N; i++ {
				enc, err := tc.codec.Encode(fm)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tc.codec.Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5ViewTranslation measures a flow write through a slicer view
// until the master twin commits (§4.2).
func BenchmarkE5ViewTranslation(b *testing.B) {
	y, err := benchutil.NewFSOnlyRig(1)
	if err != nil {
		b.Fatal(err)
	}
	p := y.Root()
	filter, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6")
	sl := apps.NewSlicer(y, "/", "bench", filter, []string{"sw1"})
	if err := sl.Create(); err != nil {
		b.Fatal(err)
	}
	if err := sl.Start(); err != nil {
		b.Fatal(err)
	}
	defer sl.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/views/bench/switches/sw1/flows/v%d", i)
		if _, err := yancfs.WriteFlow(p, path, benchutil.SampleFlowSpec(i)); err != nil {
			b.Fatal(err)
		}
		master := fmt.Sprintf("/switches/sw1/flows/slice-bench-v%d", i)
		for {
			if v, err := yancfs.FlowVersion(p, master); err == nil && v >= 1 {
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// BenchmarkE6Discovery measures one full LLDP discovery round on an
// 8-switch line (§4.3).
func BenchmarkE6Discovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := benchutil.NewLinearRig(8, openflow.Version10)
		if err != nil {
			b.Fatal(err)
		}
		td := apps.NewTopod(r.Y.Root(), "/")
		b.StartTimer()
		if err := td.DiscoverOnce(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		td.Stop()
		r.Close()
		b.StartTimer()
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
			fs := vfs.New()
			p := fs.RootProc()
			if err := p.Mkdir("/d", 0o755); err != nil {
				b.Fatal(err)
			}
			if watched {
				w, err := p.AddWatch("/d", vfs.OpWrite, vfs.BufferSize(64))
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				go func() {
					for range w.C {
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.WriteString("/d/f", "x"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10Distributed measures remote operations through the
// distributed file system per consistency mode (§6).
func BenchmarkE10Consistency(b *testing.B) {
	for _, mode := range []dfs.Consistency{dfs.Strict, dfs.Eventual} {
		b.Run(mode.String(), func(b *testing.B) {
			y, err := yancfs.New()
			if err != nil {
				b.Fatal(err)
			}
			srv := dfs.NewServer(y.VFS())
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := dfs.Mount(addr, vfs.Root, mode)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.WriteString(fmt.Sprintf("/hosts/h%d", i), "x"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE10Distributed measures parallel remote reads through
// concurrent mounts (§6's distributed workload).
func BenchmarkE10Distributed(b *testing.B) {
	y, err := benchutil.NewFSOnlyRig(8)
	if err != nil {
		b.Fatal(err)
	}
	srv := dfs.NewServer(y.VFS())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			clients := make([]*dfs.Client, workers)
			for i := range clients {
				c, err := dfs.Mount(addr, vfs.Root, dfs.Strict)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			b.ResetTimer()
			done := make(chan struct{}, workers)
			per := b.N/workers + 1
			for _, c := range clients {
				go func(c *dfs.Client) {
					for i := 0; i < per; i++ {
						if _, err := c.ReadDir("/switches"); err != nil {
							b.Error(err)
							break
						}
					}
					done <- struct{}{}
				}(c)
			}
			for range clients {
				<-done
			}
		})
	}
}

// BenchmarkE11ReactiveSetup measures the full reactive path: table miss
// at the simulated switch, router consumes the event, installs the path
// through file writes, packet delivered (§8).
func BenchmarkE11ReactiveSetup(b *testing.B) {
	r, err := benchutil.NewLinearRig(3, openflow.Version10)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	td := apps.NewTopod(r.Y.Root(), "/")
	if err := td.DiscoverOnce(); err != nil {
		b.Fatal(err)
	}
	td.Stop()
	rt := apps.NewRouter(r.Y.Root(), "/")
	rt.IdleTimeout = 0 // flows persist; each iteration uses a new flow id
	if err := rt.Start(); err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	h1, h3 := r.Hosts[0], r.Hosts[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A distinct TCP source port per iteration forces a fresh miss.
		h1.SendTCP(h3, uint16(1024+i%60000), 80, nil)
		want := i + 1
		if !h3.WaitFor(func(frames [][]byte) bool { return len(frames) >= want }, 10*time.Second) {
			b.Fatalf("packet %d lost", i)
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
				y, err := benchutil.NewFSOnlyRig(k)
				if err != nil {
					b.Fatal(err)
				}
				p := y.Root()
				before := y.VFS().Stats().Total()
				b.StartTimer()
				for s := 1; s <= k; s++ {
					if _, err := yancfs.WriteFlow(p, fmt.Sprintf("/switches/sw%d/flows/f", s), benchutil.SampleFlowSpec(s)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				ops := y.VFS().Stats().Total() - before
				b.ReportMetric(float64(ops)/float64(k), "syscalls/switch")
				b.StartTimer()
			}
		})
	}
}

// BenchmarkE14ConcurrentApps measures aggregate multicore throughput of
// the mixed app workload (flow rewrite+commit, switch stat, flow-table
// list, periodic packet-in) at increasing worker counts (§8.2). The
// cmd/yancbench E14 runner prints the same series as ops/s with the
// speedup gate; here b.N operations are split evenly across workers so
// ns/op reflects the per-op cost under contention.
func BenchmarkE14ConcurrentApps(b *testing.B) {
	pi := &openflow.PacketIn{InPort: 1, TotalLen: 64, Data: make([]byte, 64)}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			y, err := benchutil.NewFSOnlyRig(8)
			if err != nil {
				b.Fatal(err)
			}
			p := y.Root()
			_, w, err := yancfs.Subscribe(p, "/", "e14app")
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			go func() {
				for range w.C {
				}
			}()
			for i := 0; i < workers; i++ {
				flow := fmt.Sprintf("/switches/sw%d/flows/app%d", 1+i%8, i)
				if _, err := yancfs.WriteFlow(p, flow, benchutil.SampleFlowSpec(i)); err != nil {
					b.Fatal(err)
				}
			}
			per := b.N/workers + 1
			done := make(chan struct{}, workers)
			b.ResetTimer()
			for i := 0; i < workers; i++ {
				go func(wid int) {
					defer func() { done <- struct{}{} }()
					sw := fmt.Sprintf("/switches/sw%d", 1+wid%8)
					flow := fmt.Sprintf("%s/flows/app%d", sw, wid)
					for n := 0; n < per; n++ {
						if err := p.WriteString(flow+"/match.nw_src", fmt.Sprintf("10.0.%d.%d\n", wid, n%250)); err != nil {
							b.Error(err)
							return
						}
						if _, err := yancfs.CommitFlow(p, flow); err != nil {
							b.Error(err)
							return
						}
						if _, err := p.Stat(sw + "/id"); err != nil {
							b.Error(err)
							return
						}
						if _, err := p.ReadDir(sw + "/flows"); err != nil {
							b.Error(err)
							return
						}
						if n%32 == 0 {
							if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}(i)
			}
			for i := 0; i < workers; i++ {
				<-done
			}
		})
	}
}

// BenchmarkVFSPathWalk is the supporting ablation for path resolution
// cost at increasing depth.
func BenchmarkVFSPathWalk(b *testing.B) {
	fs := vfs.New()
	p := fs.RootProc()
	deep := "/a/b/c/d/e/f/g/h"
	if err := p.MkdirAll(deep, 0o755); err != nil {
		b.Fatal(err)
	}
	if err := p.WriteString(deep+"/file", "x"); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct{ name, path string }{
		{"depth-1", "/a"},
		{"depth-8", deep + "/file"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Stat(tc.path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
