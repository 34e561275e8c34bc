// Command yancbench is the experiment harness: it regenerates every
// series recorded in EXPERIMENTS.md — one experiment per section,
// matching the experiment ids in DESIGN.md (E1..E18). Figures 2 and 3
// are regenerated by the yanctop command.
//
// Usage:
//
//	yancbench              # run every experiment
//	yancbench -run E12,E18 # run a subset
//	yancbench -quick       # smaller parameter sweeps
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"yanc/internal/apps"
	"yanc/internal/benchutil"
	"yanc/internal/dfs"
	"yanc/internal/faultnet"
	"yanc/internal/libyanc"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

var (
	quick bool
	gate  bool
)

type experiment struct {
	id    string
	title string
	run   func() error
}

func main() {
	runList := flag.String("run", "", "comma-separated experiment ids (default: all)")
	flag.BoolVar(&quick, "quick", false, "smaller parameter sweeps")
	flag.BoolVar(&gate, "gate", false, "E14: fail if 4-worker throughput < 1-worker (skipped on <4 cores); E15: fail if 8-subscriber delivery costs more than 2x 1-subscriber; E16: fail on any lost strict write, duplicate apply, or slow convergence; E17: fail on any lost install or a create→installed p99 above the budget")
	flag.Parse()

	experiments := []experiment{
		{"E1", "semantic mkdir: typed object creation (§3.1)", runE1},
		{"E2", "version-file commit batching (§3.4)", runE2},
		{"E3", "packet-in fan-out to N applications (§3.5)", runE3},
		{"E4", "driver wire translation, OF1.0 vs OF1.3 (§4.1)", runE4},
		{"E5", "view translation overhead (§4.2)", runE5},
		{"E6", "LLDP topology discovery round (§4.3)", runE6},
		{"E8", "fsnotify watch delivery (§5.2)", runE8},
		{"E10", "distributed control over the dfs (§6)", runE10},
		{"E11", "reactive path setup, table miss to delivery (§8)", runE11},
		{"E12", "file-I/O flow push to N switches (§8.1)", runE12},
		{"E14", "concurrent apps: VFS multicore scaling", runE14},
		{"E15", "zero-copy packet-in fan-out: subscribers x batch size", runE15},
		{"E16", "replicated control plane: partition, failover, exactly-once", runE16},
		{"E17", "city-scale churn: create→installed latency under flow-dir churn", runE17},
		{"E18", "libyanc rings: bulk flow push and zero-copy packet-out fan-out", runE18},
	}
	want := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	for _, ex := range experiments {
		if len(want) > 0 && !want[ex.id] {
			continue
		}
		fmt.Printf("== %s: %s\n", ex.id, ex.title)
		if err := ex.run(); err != nil {
			log.Fatalf("%s: %v", ex.id, err)
		}
		fmt.Println()
	}
}

func row(format string, args ...any) { fmt.Printf("   "+format+"\n", args...) }

// procLine appends the experiment's .proc delta — the operation count and
// aggregate latency profile the controller itself observed — as one row.
func procLine(c *benchutil.Collector) {
	r := c.Report()
	t := r.Lat.Total()
	row("vfs: %d ops  avg %v  p50 %v  p99 %v  max %v",
		r.Ops.Total(), t.Avg(), t.Quantile(0.50), t.Quantile(0.99), t.Max)
}

// timeIt runs fn n times and returns the per-iteration duration.
func timeIt(n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(n)
}

func scale(full, small int) int {
	if quick {
		return small
	}
	return full
}

// E1 — semantic mkdir: one mkdir() call yields the whole typed skeleton.
func runE1() error {
	y, err := yancfs.New()
	if err != nil {
		return err
	}
	p := y.Root()
	col := benchutil.NewCollector(y.VFS())
	n := scale(2000, 200)
	perSwitch := timeIt(n, func(i int) {
		if err := p.Mkdir(fmt.Sprintf("/switches/s%d", i), 0o755); err != nil {
			panic(err)
		}
	})
	entries, _ := p.ReadDir("/switches/s0")
	perPlain := timeIt(n, func(i int) {
		if err := p.Mkdir(fmt.Sprintf("/hosts/h%d", i), 0o755); err != nil {
			panic(err)
		}
	})
	row("plain mkdir:              %10v/op", perPlain)
	row("switch mkdir (+%d-entry skeleton): %10v/op", len(entries), perSwitch)
	row("views mkdir auto-creates hosts/switches/views/events: see TestSemanticMkdirView")
	procLine(col)
	return nil
}

// E2 — commit batching: one flow-mod per commit, not per field write.
func runE2() error {
	r, err := benchutil.NewLinearRig(1, openflow.Version10)
	if err != nil {
		return err
	}
	defer r.Close()
	p := r.Y.Root()
	sw := r.Net.Switch(1)
	spec := benchutil.SampleFlowSpec(1)
	col := benchutil.NewCollector(r.Y.VFS())

	// Batched: stage all fields, commit once.
	before := sw.FlowModCount()
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/batched", spec); err != nil {
		return err
	}
	waitSettle()
	batched := sw.FlowModCount() - before

	// Naive: commit after every field write (what the version file
	// protects against).
	before = sw.FlowModCount()
	flowPath := "/switches/sw1/flows/naive"
	if err := p.Mkdir(flowPath, 0o755); err != nil {
		return err
	}
	fields := spec.Match.SortedFieldNames()
	for _, f := range fields {
		fld, _ := openflow.FieldByName(f)
		if err := p.WriteString(flowPath+"/match."+f, spec.Match.FieldString(fld)+"\n"); err != nil {
			return err
		}
		if _, err := yancfs.CommitFlow(p, flowPath); err != nil {
			return err
		}
		waitSettle()
	}
	naive := sw.FlowModCount() - before
	row("fields in flow:            %d", len(fields))
	row("flow-mods, version commit: %d", batched)
	row("flow-mods, per-field sync: %d", naive)
	procLine(col)
	return nil
}

func waitSettle() { time.Sleep(20 * time.Millisecond) }

// E3 — packet-in fan-out through the event directories.
func runE3() error {
	msgs := scale(2000, 200)
	for _, subs := range []int{1, 2, 4, 8, 16} {
		y, err := yancfs.New()
		if err != nil {
			return err
		}
		p := y.Root()
		for i := 0; i < subs; i++ {
			if _, _, err := yancfs.Subscribe(p, "/", fmt.Sprintf("app%d", i)); err != nil {
				return err
			}
		}
		pi := &openflow.PacketIn{InPort: 1, TotalLen: 128, Data: make([]byte, 128)}
		col := benchutil.NewCollector(y.VFS())
		per := timeIt(msgs, func(i int) {
			if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
				panic(err)
			}
		})
		row("subscribers=%2d  event-dirs: %10v/msg", subs, per)
		if subs == 16 {
			procLine(col)
		}
	}
	return nil
}

// E4 — wire translation throughput per protocol version.
func runE4() error {
	spec := benchutil.SampleFlowSpec(7)
	fm := &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: spec.Match, Priority: spec.Priority,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, Actions: spec.Actions,
		Header: openflow.Header{Xid: 1},
	}
	n := scale(200000, 20000)
	for _, c := range []openflow.Codec{openflow.Codec10{}, openflow.Codec13{}} {
		b, err := c.Encode(fm)
		if err != nil {
			return err
		}
		per := timeIt(n, func(i int) {
			enc, err := c.Encode(fm)
			if err != nil {
				panic(err)
			}
			if _, err := c.Decode(enc); err != nil {
				panic(err)
			}
		})
		row("OF1.%d  flow-mod %3d bytes  encode+decode: %8v/msg", map[uint8]int{1: 0, 4: 3}[c.Version()], len(b), per)
	}
	return nil
}

// E5 — view translation: direct write vs through a slicer.
func runE5() error {
	r, err := benchutil.NewLinearRig(2, openflow.Version10)
	if err != nil {
		return err
	}
	defer r.Close()
	p := r.Y.Root()
	filter, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6")
	sl := apps.NewSlicer(r.Y, "/", "bench", filter, []string{"sw1", "sw2"})
	if err := sl.Create(); err != nil {
		return err
	}
	if err := sl.Start(); err != nil {
		return err
	}
	defer sl.Stop()
	n := scale(300, 50)
	direct := timeIt(n, func(i int) {
		if _, err := yancfs.WriteFlow(p, fmt.Sprintf("/switches/sw1/flows/direct%d", i), benchutil.SampleFlowSpec(i)); err != nil {
			panic(err)
		}
	})
	viaView := timeIt(n, func(i int) {
		path := fmt.Sprintf("/views/bench/switches/sw1/flows/v%d", i)
		if _, err := yancfs.WriteFlow(p, path, benchutil.SampleFlowSpec(i)); err != nil {
			panic(err)
		}
		// Wait for the translated master twin to commit.
		master := fmt.Sprintf("/switches/sw1/flows/slice-bench-v%d", i)
		for {
			if v, err := yancfs.FlowVersion(p, master); err == nil && v >= 1 {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	})
	row("direct master write:      %10v/flow", direct)
	row("through slicer view:      %10v/flow (adds translation hop)", viaView)
	return nil
}

// E6 — topology discovery round duration per network size.
func runE6() error {
	for _, k := range []int{2, 4, 8, 16} {
		if quick && k > 4 {
			break
		}
		r, err := benchutil.NewLinearRig(k, openflow.Version10)
		if err != nil {
			return err
		}
		td := apps.NewTopod(r.Y.Root(), "/")
		start := time.Now()
		if err := td.DiscoverOnce(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		topo, err := apps.LoadTopology(r.Y.Root(), "/")
		if err != nil {
			return err
		}
		row("switches=%2d  round: %10v  links found: %d/%d", k, elapsed, len(topo.Links), 2*(k-1))
		td.Stop()
		r.Close()
	}
	return nil
}

// E8 — watch delivery cost.
func runE8() error {
	fs := vfs.New()
	p := fs.RootProc()
	if err := p.Mkdir("/d", 0o755); err != nil {
		return err
	}
	n := scale(100000, 10000)
	col := benchutil.NewCollector(fs)
	base := timeIt(n, func(i int) {
		if err := p.WriteString("/d/f", "x"); err != nil {
			panic(err)
		}
	})
	w, err := p.AddWatch("/d", vfs.OpWrite, vfs.BufferSize(1024))
	if err != nil {
		return err
	}
	done := make(chan int)
	go func() {
		count := 0
		for range w.C {
			count++
		}
		done <- count
	}()
	withWatch := timeIt(n, func(i int) {
		if err := p.WriteString("/d/f", "x"); err != nil {
			panic(err)
		}
	})
	w.Close()
	received := <-done
	row("write, no watch:   %10v/op", base)
	row("write, 1 watch:    %10v/op (%d events delivered or dropped-on-overflow)", withWatch, received)
	procLine(col)
	return nil
}

// E10 — distributed control: parallel route computation over dfs mounts,
// plus strict-vs-eventual write latency.
func runE10() error {
	y, err := benchutil.NewFSOnlyRig(8)
	if err != nil {
		return err
	}
	// A synthetic 8-switch ring topology in the fs for path computation.
	p := y.Root()
	for i := 1; i <= 8; i++ {
		next := i%8 + 1
		a := fmt.Sprintf("/switches/sw%d/ports/3", i)
		b := fmt.Sprintf("/switches/sw%d/ports/2", next)
		if err := p.MkdirAll(a, 0o755); err != nil {
			return err
		}
		if err := p.MkdirAll(b, 0o755); err != nil {
			return err
		}
	}
	for i := 1; i <= 8; i++ {
		next := i%8 + 1
		a := fmt.Sprintf("/switches/sw%d/ports/3", i)
		b := fmt.Sprintf("/switches/sw%d/ports/2", next)
		if err := yancfs.SetPeer(p, a, b); err != nil {
			return err
		}
		if err := yancfs.SetPeer(p, b, a); err != nil {
			return err
		}
	}
	srv := dfs.NewServer(y.VFS())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	col := benchutil.NewCollector(y.VFS())

	jobs := scale(64, 16)
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				c, err := dfs.Mount(addr, vfs.Root, dfs.Strict)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close() //yancvet:allow errdrop benchmark worker teardown
				for j := w; j < jobs; j += workers {
					// Remote route computation: read the topology through
					// the mount, compute a path, write the result back.
					if err := remoteRoute(c, j); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(w)
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		row("route jobs=%d  workers=%d  total: %10v", jobs, workers, time.Since(start))
	}

	// Write latency per consistency mode.
	n := scale(500, 100)
	for _, mode := range []dfs.Consistency{dfs.Strict, dfs.Eventual} {
		c, err := dfs.Mount(addr, vfs.Root, mode)
		if err != nil {
			return err
		}
		per := timeIt(n, func(i int) {
			if err := c.WriteString(fmt.Sprintf("/hosts/%s-%d", mode, i), "x"); err != nil {
				panic(err)
			}
		})
		if err := c.Flush(); err != nil {
			return err
		}
		c.Close() //yancvet:allow errdrop benchmark teardown after explicit Flush
		row("write latency, %-8s: %10v/op", mode, per)
	}
	procLine(col)
	return nil
}

// remoteRoute reads topology over the mount, BFSes, writes the result.
func remoteRoute(c *dfs.Client, job int) error {
	entries, err := c.ReadDir("/switches")
	if err != nil {
		return err
	}
	links := make(map[string][]string)
	for _, sw := range entries {
		ports, err := c.ReadDir("/switches/" + sw.Name + "/ports")
		if err != nil {
			continue
		}
		for _, port := range ports {
			tgt, err := c.Readlink("/switches/" + sw.Name + "/ports/" + port.Name + "/peer")
			if err != nil {
				continue
			}
			parts := strings.Split(strings.Trim(tgt, "/"), "/")
			if len(parts) >= 2 {
				links[sw.Name] = append(links[sw.Name], parts[1])
			}
		}
	}
	// BFS from sw1 to a job-dependent destination.
	dst := fmt.Sprintf("sw%d", 1+job%len(entries))
	visited := map[string]bool{"sw1": true}
	queue := [][]string{{"sw1"}}
	var path []string
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		last := cur[len(cur)-1]
		if last == dst {
			path = cur
			break
		}
		next := append([]string(nil), links[last]...)
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

// E11 — reactive setup: table miss -> router -> flows -> delivery.
func runE11() error {
	r, err := benchutil.NewLinearRig(3, openflow.Version10)
	if err != nil {
		return err
	}
	defer r.Close()
	td := apps.NewTopod(r.Y.Root(), "/")
	if err := td.DiscoverOnce(); err != nil {
		return err
	}
	td.Stop()
	rt := apps.NewRouter(r.Y.Root(), "/")
	if err := rt.Start(); err != nil {
		return err
	}
	defer rt.Stop()
	n := scale(100, 20)
	h1, h3 := r.Hosts[0], r.Hosts[2]
	// Each iteration is a distinct TCP flow, so every packet is a fresh
	// table miss driving the full reactive pipeline.
	per := timeIt(n, func(i int) {
		h1.SendTCP(h3, uint16(1024+i), 80, nil)
		want := i + 1
		if !h3.WaitFor(func(frames [][]byte) bool { return len(frames) >= want }, 5*time.Second) {
			panic("flow lost")
		}
	})
	installs, floods := rt.Stats()
	row("miss -> install -> delivery: %10v/flow (installed %d, floods %d)", per, installs, floods)

	// cbench-shape sustained throughput: distinct flows arriving
	// back-to-back, the router keeping up through file I/O alone.
	burst := scale(200, 40)
	start := time.Now()
	for i := 0; i < burst; i++ {
		h1.SendTCP(h3, uint16(30000+i), 80, nil)
	}
	deadline := time.Now().Add(30 * time.Second)
	for h3.RxCount() < n+burst && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	row("sustained: %d distinct flows in %v (%.0f flows/sec)",
		burst, elapsed.Round(time.Millisecond), float64(burst)/elapsed.Seconds())
	return nil
}

// E12 — the paper's headline cost: pushing a flow to N switches through
// per-field file I/O, counted in VFS entry points (system calls).
func runE12() error {
	for _, k := range []int{10, 100, 1000} {
		if quick && k > 100 {
			break
		}
		y, err := benchutil.NewFSOnlyRig(k)
		if err != nil {
			return err
		}
		p := y.Root()
		col := benchutil.NewCollector(y.VFS())
		before := y.VFS().Stats().Total()
		start := time.Now()
		for i := 1; i <= k; i++ {
			if _, err := yancfs.WriteFlow(p, fmt.Sprintf("/switches/sw%d/flows/f", i), benchutil.SampleFlowSpec(i)); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		ops := y.VFS().Stats().Total() - before
		row("switches=%4d  file I/O: %8d syscalls (%5.1f/switch)  %10v total", k, ops, float64(ops)/float64(k), elapsed)
		procLine(col)
	}
	return nil
}

// e14Point is one worker-count sample of the E14 series, as recorded in
// BENCH_E14.json.
type e14Point struct {
	Workers         int     `json:"workers"`
	Ops             uint64  `json:"ops"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	Speedup         float64 `json:"speedup_vs_1"`
	ResolveLockfree uint64  `json:"resolve_lockfree"`
	ResolveFallback uint64  `json:"resolve_fallback"`
	LockfreeShare   float64 `json:"lockfree_share"`
}

// e14Record is the BENCH_E14.json schema. Cores is load-bearing: a gate
// comparison between runs on different core counts is meaningless, so
// the recorded value guards the gate (see runE14).
type e14Record struct {
	Experiment string     `json:"experiment"`
	Cores      int        `json:"cores"`
	Quick      bool       `json:"quick"`
	Results    []e14Point `json:"results"`
}

// E14 — concurrent apps: N goroutine "apps" run a mixed flow-write /
// packet-in / stat workload against a shared 8-switch tree, and the
// aggregate VFS ops/s at 1/2/4/8 workers gives the multicore speedup
// curve the sharded-lock rewrite and the lock-free resolver exist for.
// Results also land in BENCH_E14.json for EXPERIMENTS.md.
func runE14() error {
	cores := runtime.NumCPU()
	dur := 500 * time.Millisecond
	if quick {
		dur = 150 * time.Millisecond
	}
	// Read the recorded baseline BEFORE overwriting it: if it came from a
	// machine with a different core count, gating this run against
	// expectations set by that file would be noise dressed as signal.
	var prior *e14Record
	if b, err := os.ReadFile("BENCH_E14.json"); err == nil {
		var r e14Record
		if json.Unmarshal(b, &r) == nil && r.Experiment == "E14" {
			prior = &r
		}
	}
	var points []e14Point
	for _, workers := range []int{1, 2, 4, 8} {
		ops, elapsed, lf, fb, err := e14Load(workers, dur)
		if err != nil {
			return err
		}
		pt := e14Point{
			Workers: workers, Ops: ops, OpsPerSec: float64(ops) / elapsed.Seconds(),
			ResolveLockfree: lf, ResolveFallback: fb,
		}
		if lf+fb > 0 {
			pt.LockfreeShare = float64(lf) / float64(lf+fb)
		}
		if len(points) > 0 {
			pt.Speedup = pt.OpsPerSec / points[0].OpsPerSec
		} else {
			pt.Speedup = 1
		}
		points = append(points, pt)
		row("workers=%d  %9d ops in %8v  %12.0f ops/s  speedup %.2fx  lockfree %.1f%%",
			workers, ops, elapsed.Round(time.Millisecond), pt.OpsPerSec, pt.Speedup,
			100*pt.LockfreeShare)
	}
	out := e14Record{Experiment: "E14", Cores: cores, Quick: quick, Results: points}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_E14.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	row("cores=%d  series written to BENCH_E14.json", cores)
	if gate {
		if prior != nil && prior.Cores != cores {
			row("gate: SKIPPED — recorded baseline BENCH_E14.json is from a %d-core machine, this run has %d cores.", prior.Cores, cores)
			row("gate: a cross-core-count comparison is meaningless; the baseline has been re-recorded for this machine, rerun to gate against it.")
			return nil
		}
		if cores < 4 {
			row("gate: SKIPPED (%d cores < 4: parallel speedup not expected)", cores)
			return nil
		}
		if points[2].OpsPerSec < points[0].OpsPerSec {
			return fmt.Errorf("E14 gate: 4-worker throughput %.0f ops/s below 1-worker %.0f ops/s",
				points[2].OpsPerSec, points[0].OpsPerSec)
		}
		if share := points[3].LockfreeShare; share < 0.95 {
			return fmt.Errorf("E14 gate: lock-free resolutions served %.1f%% of the 8-worker read mix, want >= 95%%", 100*share)
		}
		if cores >= 8 {
			if points[3].Speedup < 3 {
				return fmt.Errorf("E14 gate: 8-worker speedup %.2fx on %d cores, want >= 3x",
					points[3].Speedup, cores)
			}
			row("gate: OK (8w/1w = %.2fx, lockfree %.1f%%)", points[3].Speedup, 100*points[3].LockfreeShare)
			return nil
		}
		row("gate: OK (4w/1w = %.2fx, lockfree %.1f%%)", points[2].Speedup, 100*points[3].LockfreeShare)
	}
	return nil
}

// e14Load runs the mixed workload with the given worker count on a fresh
// rig and returns the aggregate VFS op count, elapsed wall time, and the
// rig's resolve_lockfree / resolve_fallback counters.
func e14Load(workers int, dur time.Duration) (uint64, time.Duration, uint64, uint64, error) {
	y, err := benchutil.NewFSOnlyRig(8)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	p := y.Root()
	// One packet-in subscriber so DeliverPacketIn exercises the event
	// buffer path.
	if _, w, err := yancfs.Subscribe(p, "/", "e14app"); err != nil {
		return 0, 0, 0, 0, err
	} else {
		defer w.Close()
		go func() {
			for range w.C {
			}
		}()
	}
	// Each app owns one flow directory on a shared switch, pre-created so
	// the measured loop is the steady-state field-rewrite path.
	for w := 0; w < workers; w++ {
		flow := fmt.Sprintf("/switches/sw%d/flows/app%d", 1+w%8, w)
		if _, err := yancfs.WriteFlow(p, flow, benchutil.SampleFlowSpec(w)); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	pi := &openflow.PacketIn{InPort: 1, TotalLen: 64, Data: make([]byte, 64)}
	before := y.VFS().Stats().Total()
	stop := make(chan struct{})
	errs := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		go func(w int) {
			sw := fmt.Sprintf("/switches/sw%d", 1+w%8)
			flow := sw + "/flows/app" + fmt.Sprint(w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				// Mixed app behaviour: rewrite a match field and commit,
				// stat the switch, list its flow table, and occasionally
				// take a packet-in.
				if err := p.WriteString(flow+"/match.nw_src", fmt.Sprintf("10.0.%d.%d\n", w, i%250)); err != nil {
					errs <- err
					return
				}
				if _, err := yancfs.CommitFlow(p, flow); err != nil {
					errs <- err
					return
				}
				if _, err := p.Stat(sw + "/id"); err != nil {
					errs <- err
					return
				}
				if _, err := p.ReadDir(sw + "/flows"); err != nil {
					errs <- err
					return
				}
				if i%32 == 0 {
					if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(dur)
	close(stop)
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			return 0, 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	y.VFS().SyncWatches()
	ls := y.VFS().LockStats()
	return y.VFS().Stats().Total() - before, elapsed, ls.ResolveLockfree, ls.ResolveFallback, nil
}

// E15 — zero-copy fan-out: per-message delivery cost across subscriber
// count and driver batch size. Each trial is pure delivery into fresh
// buffers — the message count stays below the depth bound, so no
// drop-oldest churn pollutes the numbers — and each configuration takes
// the best of three trials to shed scheduler noise. Results land in
// BENCH_E15.json; the gate pins the tentpole property that adding
// subscribers costs links, not copies.
func runE15() error {
	msgs := scale(960, 320)
	const trials = 3
	type point struct {
		Subscribers int     `json:"subscribers"`
		Batch       int     `json:"batch"`
		UsPerMsg    float64 `json:"us_per_msg"`
		LinkedBytes uint64  `json:"linked_bytes"`
		CopiedBytes uint64  `json:"copied_bytes"`
	}
	var points []point
	best := map[[2]int]time.Duration{}
	for _, subs := range []int{1, 2, 4, 8, 16} {
		for _, batch := range []int{1, 8, 64} {
			var per time.Duration
			var stats yancfs.EventStats
			for tr := 0; tr < trials; tr++ {
				d, s, err := e15Deliver(subs, batch, msgs)
				if err != nil {
					return err
				}
				if per == 0 || d < per {
					per, stats = d, s
				}
			}
			best[[2]int{subs, batch}] = per
			points = append(points, point{
				Subscribers: subs, Batch: batch,
				UsPerMsg:    float64(per.Nanoseconds()) / 1e3,
				LinkedBytes: stats.LinkedBytes, CopiedBytes: stats.CopiedBytes,
			})
			row("subscribers=%2d  batch=%2d  %8.2fµs/msg  linked %7d B  copied %6d B",
				subs, batch, float64(per.Nanoseconds())/1e3, stats.LinkedBytes, stats.CopiedBytes)
		}
	}
	out := struct {
		Experiment string  `json:"experiment"`
		Cores      int     `json:"cores"`
		Quick      bool    `json:"quick"`
		Messages   int     `json:"messages"`
		Results    []point `json:"results"`
	}{"E15", runtime.NumCPU(), quick, msgs, points}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_E15.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	row("series written to BENCH_E15.json")
	if gate {
		one, eight := best[[2]int{1, 1}], best[[2]int{8, 1}]
		if eight > 2*one {
			return fmt.Errorf("E15 gate: 8-subscriber delivery %v/msg exceeds 2x 1-subscriber %v/msg",
				eight, one)
		}
		row("gate: OK (8-sub/1-sub = %.2fx)", float64(eight)/float64(one))
	}
	return nil
}

// e15Deliver delivers msgs packet-ins to a fresh filesystem with the
// given subscriber count, in bursts of batchSize, and returns the
// per-message cost including the watch-dispatch drain.
func e15Deliver(subs, batchSize, msgs int) (time.Duration, yancfs.EventStats, error) {
	y, err := yancfs.New()
	if err != nil {
		return 0, yancfs.EventStats{}, err
	}
	p := y.Root()
	for i := 0; i < subs; i++ {
		if _, _, err := yancfs.Subscribe(p, "/", fmt.Sprintf("app%d", i)); err != nil {
			return 0, yancfs.EventStats{}, err
		}
	}
	batch := make([]*openflow.PacketIn, batchSize)
	for i := range batch {
		batch[i] = &openflow.PacketIn{InPort: 1, TotalLen: 128, Data: make([]byte, 128)}
	}
	rounds := msgs / batchSize
	start := time.Now()
	for r := 0; r < rounds; r++ {
		if batchSize == 1 {
			err = y.DeliverPacketIn("/", "sw1", batch[0])
		} else {
			err = y.DeliverPacketInBatch("/", "sw1", batch)
		}
		if err != nil {
			return 0, yancfs.EventStats{}, err
		}
	}
	y.VFS().SyncWatches()
	elapsed := time.Since(start)
	return elapsed / time.Duration(rounds*batchSize), y.EventStats(), nil
}

// E16 — replicated control plane under partition and failover: three
// dfs replicas run the lease/election protocol while a strict-mode
// client pushes a flow log through MountReplicas; halfway through, the
// leader is killed, fully partitioned, or one-way partitioned (it can
// send heartbeats but hears nothing back). The series records, per
// scenario, how long the surviving group takes to converge after the
// fault, how many acknowledged writes were lost (the strict contract
// says zero), and how many entries were applied twice despite the
// client replaying them across the failover (the dedup contract says
// zero). Results land in BENCH_E16.json.
func runE16() error {
	writes := scale(60, 24)
	type point struct {
		Scenario      string  `json:"scenario"`
		Writes        int     `json:"writes"`
		Acked         int     `json:"acked"`
		Failovers     uint64  `json:"failovers"`
		Replayed      uint64  `json:"replayed_writes"`
		Lost          int     `json:"lost_updates"`
		Duplicates    int     `json:"duplicate_applies"`
		ConvergenceMs float64 `json:"convergence_ms"`
	}
	var points []point
	for _, sc := range []string{"leader-kill", "leader-partition", "asym-partition"} {
		res, err := e16Scenario(sc, writes)
		if err != nil {
			return fmt.Errorf("%s: %w", sc, err)
		}
		pt := point{Scenario: sc, Writes: writes, Acked: res.acked,
			Failovers: res.failovers, Replayed: res.replayed,
			Lost: res.lost, Duplicates: res.dups,
			ConvergenceMs: float64(res.convergence.Microseconds()) / 1000}
		points = append(points, pt)
		row("%-16s acked %d/%d  failovers %d  replayed %d  lost %d  dup %d  converged in %v",
			sc, res.acked, writes, res.failovers, res.replayed, res.lost, res.dups,
			res.convergence.Round(time.Millisecond))
	}
	out := struct {
		Experiment string  `json:"experiment"`
		Replicas   int     `json:"replicas"`
		Quick      bool    `json:"quick"`
		Results    []point `json:"results"`
	}{"E16", 3, quick, points}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_E16.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	row("series written to BENCH_E16.json")
	if gate {
		const budget = 5 * time.Second
		for _, pt := range points {
			if pt.Lost != 0 {
				return fmt.Errorf("E16 gate: %s lost %d acknowledged strict writes, want 0", pt.Scenario, pt.Lost)
			}
			if pt.Duplicates != 0 {
				return fmt.Errorf("E16 gate: %s applied %d entries twice, want 0", pt.Scenario, pt.Duplicates)
			}
			if pt.ConvergenceMs > float64(budget.Milliseconds()) {
				return fmt.Errorf("E16 gate: %s convergence %.0fms exceeds %v", pt.Scenario, pt.ConvergenceMs, budget)
			}
		}
		row("gate: OK (all scenarios: lost=0 dup=0, convergence within %v)", budget)
	}
	return nil
}

// e17Point is one (switches, flows) sample of the churn sweep, as
// recorded in BENCH_E17.json.
type e17Point struct {
	Switches    int                  `json:"switches"`
	Flows       int                  `json:"flows"`
	ChurnOps    int                  `json:"churn_ops"`
	Creates     int                  `json:"creates"`
	Modifies    int                  `json:"modifies"`
	Deletes     int                  `json:"deletes"`
	Installs    uint64               `json:"installs"`
	Resolved    uint64               `json:"resolved"`
	Aborted     uint64               `json:"aborted"`
	Lost        int                  `json:"lost"`
	ConnectMs   float64              `json:"connect_ms"`
	CreateMs    float64              `json:"create_phase_ms"`
	ChurnMs     float64              `json:"churn_phase_ms"`
	DrainMs     float64              `json:"drain_ms"`
	FlowsPerSec float64              `json:"create_phase_flows_per_sec"`
	Latency     benchutil.HistReport `json:"latency"`
}

// E17 — city-scale churn: the yancload engine at increasing scale, up to
// 1024 TCP-attached switches and 102400 flow dirs, unthrottled. Every
// create/modify is tracked from the WriteFlow call to the switch
// applying the FlowAdd; the gate pins the liveness contract (every
// tracked write resolves or is legitimately aborted by a later delete —
// zero lost) plus a deliberately generous p99 budget that catches
// collapse, not jitter. Results land in BENCH_E17.json.
func runE17() error {
	type size struct{ switches, flows, churn int }
	sizes := []size{{64, 10_000, 5_000}, {256, 25_600, 12_800}, {1024, 102_400, 51_200}}
	if quick {
		sizes = sizes[:1]
	}
	const p99Budget = 120 * time.Second
	var points []e17Point
	for _, s := range sizes {
		res, err := benchutil.RunChurn(benchutil.ChurnConfig{
			Switches: s.switches, Flows: s.flows, ChurnOps: s.churn, Seed: 17,
			DrainTimeout: 10 * time.Minute,
		})
		if err != nil {
			return err
		}
		lat := res.Hist.Report()
		pt := e17Point{
			Switches: s.switches, Flows: s.flows, ChurnOps: s.churn,
			Creates: res.Creates, Modifies: res.Modifies, Deletes: res.Deletes,
			Installs: res.Installs, Resolved: res.Resolved, Aborted: res.Aborted, Lost: res.Lost,
			ConnectMs: float64(res.Connect.Microseconds()) / 1000,
			CreateMs:  float64(res.CreatePhase.Microseconds()) / 1000,
			ChurnMs:   float64(res.ChurnPhase.Microseconds()) / 1000,
			DrainMs:   float64(res.Drain.Microseconds()) / 1000,
			Latency:   lat,
		}
		if sec := res.CreatePhase.Seconds(); sec > 0 {
			pt.FlowsPerSec = float64(res.Flows) / sec
		}
		points = append(points, pt)
		row("switches=%4d flows=%6d churn=%5d  installs %6d lost %d  p50 %v p99 %v  create %v churn %v drain %v",
			s.switches, s.flows, s.churn, res.Installs, res.Lost,
			time.Duration(lat.P50NS).Round(time.Millisecond), time.Duration(lat.P99NS).Round(time.Millisecond),
			res.CreatePhase.Round(time.Millisecond), res.ChurnPhase.Round(time.Millisecond),
			res.Drain.Round(time.Millisecond))
	}
	out := struct {
		Experiment string     `json:"experiment"`
		Cores      int        `json:"cores"`
		Quick      bool       `json:"quick"`
		Results    []e17Point `json:"results"`
	}{"E17", runtime.NumCPU(), quick, points}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_E17.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	row("series written to BENCH_E17.json")
	if gate {
		for _, pt := range points {
			if pt.Lost != 0 {
				return fmt.Errorf("E17 gate: %d switches: %d installs lost, want 0", pt.Switches, pt.Lost)
			}
			if pt.Latency.P99NS > int64(p99Budget) {
				return fmt.Errorf("E17 gate: %d switches: create→installed p99 %v exceeds %v",
					pt.Switches, time.Duration(pt.Latency.P99NS), p99Budget)
			}
		}
		row("gate: OK (all points: lost=0, p99 within %v)", p99Budget)
	}
	return nil
}

// e18Push is one switch-count sample of the E18 bulk-push comparison,
// as recorded in BENCH_E18.json.
type e18Push struct {
	Switches    int     `json:"switches"`
	FileOps     uint64  `json:"file_ops"`
	FileMs      float64 `json:"file_ms"`
	RingOps     uint64  `json:"ring_ops"`
	RingMs      float64 `json:"ring_ms"`
	RingDrains  uint64  `json:"ring_drains"`
	OpsRatio    float64 `json:"ops_ratio"`
	Speedup     float64 `json:"speedup"`
	RingFlowsPS float64 `json:"ring_flows_per_sec"`
}

// e18Pout is one fan-out sample of the E18 packet-out sweep.
type e18Pout struct {
	Fanout        int     `json:"fanout"`
	UsPerCall     float64 `json:"us_per_call"`
	UsPerLink     float64 `json:"us_per_link"`
	SharedBacking bool    `json:"one_staged_copy"`
}

// E18 — libyanc rings. Part one: the E12 workload (push one flow to
// each of k switches) through the submission/completion ring vs the
// per-field file-I/O path, wall clock and counted VFS calls, best of
// three trials. Part two: zero-copy packet-out — one 1500-byte frame
// fanned out to N switches per call; the per-link cost must stay flat
// and every target's frame file must share ONE backing array (the
// staged copy), which the sweep verifies by pointer identity through
// vfs.ReadFileShared. Results land in BENCH_E18.json; the gate pins the
// ring speedup (>=5x at the quick size, >=10x at the full 1k-switch
// size) and the one-staged-copy property.
func runE18() error {
	const trials = 5 // best-of: single-core scheduling noise dwarfs the push itself
	sizes := []int{10, 100, 1000}
	if quick {
		sizes = sizes[:2]
	}
	var pushes []e18Push
	for _, k := range sizes {
		var pt e18Push
		pt.Switches = k
		for tr := 0; tr < trials; tr++ {
			fileMs, fileOps, err := e18FilePush(k)
			if err != nil {
				return err
			}
			if pt.FileMs == 0 || fileMs < pt.FileMs {
				pt.FileMs, pt.FileOps = fileMs, fileOps
			}
			ringMs, ringOps, drains, err := e18RingPush(k)
			if err != nil {
				return err
			}
			if pt.RingMs == 0 || ringMs < pt.RingMs {
				pt.RingMs, pt.RingOps, pt.RingDrains = ringMs, ringOps, drains
			}
		}
		if pt.RingOps > 0 { // WithTx is not a counted entry point, so RingOps can be 0
			pt.OpsRatio = float64(pt.FileOps) / float64(pt.RingOps)
		} else {
			pt.OpsRatio = float64(pt.FileOps)
		}
		pt.Speedup = pt.FileMs / pt.RingMs
		pt.RingFlowsPS = float64(pt.Switches) / (pt.RingMs / 1000)
		pushes = append(pushes, pt)
		row("switches=%4d  file: %8d calls %9.3fms   ring: %5d calls %9.3fms (%d drains)  %5.1fx wall  %5.1fx calls",
			k, pt.FileOps, pt.FileMs, pt.RingOps, pt.RingMs, pt.RingDrains, pt.Speedup, pt.OpsRatio)
	}

	fanouts := []int{1, 8, 64, 512}
	if quick {
		fanouts = fanouts[:3]
	}
	var pouts []e18Pout
	for _, fo := range fanouts {
		pt, err := e18PoutSweep(fo, scale(100, 25))
		if err != nil {
			return err
		}
		pouts = append(pouts, pt)
		row("packet-out fanout=%3d  %8.2fµs/call  %7.2fµs/link  one staged copy: %v",
			fo, pt.UsPerCall, pt.UsPerLink, pt.SharedBacking)
	}

	out := struct {
		Experiment string    `json:"experiment"`
		Cores      int       `json:"cores"`
		Quick      bool      `json:"quick"`
		Push       []e18Push `json:"push"`
		PacketOut  []e18Pout `json:"packet_out"`
	}{"E18", runtime.NumCPU(), quick, pushes, pouts}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_E18.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	row("series written to BENCH_E18.json")
	if gate {
		want := 10.0
		if quick {
			want = 5.0
		}
		last := pushes[len(pushes)-1]
		if last.Speedup < want {
			return fmt.Errorf("E18 gate: ring push at %d switches is %.1fx the file-I/O path, want >= %.0fx",
				last.Switches, last.Speedup, want)
		}
		for _, pt := range pouts {
			if !pt.SharedBacking {
				return fmt.Errorf("E18 gate: packet-out fanout=%d staged more than one payload copy", pt.Fanout)
			}
		}
		row("gate: OK (ring %.1fx at %d switches, packet-out one staged copy at every fan-out)",
			last.Speedup, last.Switches)
	}
	return nil
}

// e18Work prebuilds the k (path, spec) pairs of one bulk push so the
// timed region measures the push itself — not fmt.Sprintf and sample
// spec construction, which burden both paths equally.
func e18Work(k int) []libyanc.SQE {
	work := make([]libyanc.SQE, k)
	for i := 1; i <= k; i++ {
		work[i-1] = libyanc.SQE{
			Op:   libyanc.OpPut,
			Path: fmt.Sprintf("/switches/sw%d/flows/f", i),
			Spec: benchutil.SampleFlowSpec(i),
		}
	}
	return work
}

// e18FilePush is the E12 path: one WriteFlow (per-field file I/O, one
// transaction per flow) per switch.
func e18FilePush(k int) (float64, uint64, error) {
	y, err := benchutil.NewFSOnlyRig(k)
	if err != nil {
		return 0, 0, err
	}
	work := e18Work(k)
	p := y.Root()
	before := y.VFS().Stats().Total()
	runtime.GC() // settle rig-construction garbage outside the timed region
	start := time.Now()
	for _, w := range work {
		if _, err := yancfs.WriteFlow(p, w.Path, w.Spec); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / 1e6, y.VFS().Stats().Total() - before, nil
}

// e18RingPush is the same workload through a FlowRing: k submissions, a
// Flush barrier, and however many adaptive drain transactions the ring
// needed.
func e18RingPush(k int) (float64, uint64, uint64, error) {
	y, err := benchutil.NewFSOnlyRig(k)
	if err != nil {
		return 0, 0, 0, err
	}
	work := e18Work(k)
	r := libyanc.New(y).NewFlowRing(libyanc.RingConfig{SQDepth: 1024})
	before := y.VFS().Stats().Total()
	runtime.GC() // settle rig-construction garbage outside the timed region
	start := time.Now()
	for _, w := range work {
		if err := r.Submit(w); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := r.Flush(); err != nil {
		return 0, 0, 0, err
	}
	elapsed := time.Since(start)
	st := r.Stats()
	if err := r.Close(); err != nil {
		return 0, 0, 0, err
	}
	return float64(elapsed.Nanoseconds()) / 1e6, y.VFS().Stats().Total() - before, st.Drains, nil
}

// e18PoutSweep times n PacketOut calls fanning one 1500-byte frame out
// to fo switches each, then checks by pointer identity that the last
// call staged exactly one copy shared by every target.
func e18PoutSweep(fo, n int) (e18Pout, error) {
	y, err := benchutil.NewFSOnlyRig(fo)
	if err != nil {
		return e18Pout{}, err
	}
	targets := make([]string, fo)
	for i := range targets {
		targets[i] = fmt.Sprintf("/switches/sw%d", i+1)
	}
	frame := make([]byte, 1500)
	c := libyanc.New(y)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := c.PacketOut(targets, "out=2", frame); err != nil {
			return e18Pout{}, err
		}
	}
	elapsed := time.Since(start)
	pt := e18Pout{
		Fanout:    fo,
		UsPerCall: float64(elapsed.Nanoseconds()) / 1e3 / float64(n),
	}
	pt.UsPerLink = pt.UsPerCall / float64(fo)
	// One staged copy: every switch's copy of the last message must
	// share one backing array.
	p := y.Root()
	var first []byte
	pt.SharedBacking = true
	for _, sw := range targets {
		ents, err := p.ReadDir(sw + "/pout")
		if err != nil {
			return e18Pout{}, err
		}
		last := ""
		for _, e := range ents {
			if yancfs.IsPacketOutName(e.Name) && e.Name > last {
				last = e.Name
			}
		}
		data, err := p.ReadFileShared(sw + "/pout/" + last + "/" + yancfs.PacketOutFrame)
		if err != nil {
			return e18Pout{}, err
		}
		if first == nil {
			first = data
		} else if &first[0] != &data[0] {
			pt.SharedBacking = false
		}
	}
	return pt, nil
}

type e16Result struct {
	acked       int
	failovers   uint64
	replayed    uint64
	lost        int
	dups        int
	convergence time.Duration
}

// e16Scenario runs one fault mode against a fresh 3-replica group and
// audits the flow log on every surviving replica.
func e16Scenario(mode string, writes int) (e16Result, error) {
	const n = 3
	var res e16Result
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, err
		}
		defer l.Close()
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	injs := make([]*faultnet.Injector, n)
	fss := make([]*vfs.FS, n)
	reps := make([]*dfs.Replica, n)
	for i := 0; i < n; i++ {
		inj := faultnet.New(int64(4000 + i))
		fs := vfs.New()
		r, err := dfs.NewReplica(fs, dfs.ReplicaOptions{
			ID: i, Addrs: addrs, Seed: int64(i + 1),
			Heartbeat:       5 * time.Millisecond,
			LeaseTimeout:    60 * time.Millisecond,
			ElectionTimeout: 80 * time.Millisecond,
			CommitTimeout:   5 * time.Second,
			Dial: func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, time.Second)
				if err != nil {
					return nil, err
				}
				return inj.Wrap(c), nil
			},
		})
		if err != nil {
			return res, err
		}
		if _, err := r.ListenOn(inj.WrapListener(listeners[i])); err != nil {
			return res, err
		}
		r.Start()
		injs[i], fss[i], reps[i] = inj, fs, r
	}
	defer func() {
		for _, r := range reps {
			r.Close()
		}
	}()
	leaderOf := func(skip int) int {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for i, r := range reps {
				if i != skip && r.IsLeader() {
					return i
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		return -1
	}
	if leaderOf(-1) < 0 {
		return res, fmt.Errorf("no initial leader elected")
	}

	// CallTimeout is the client's partition detector: a deaf leader is
	// only abandoned after a silent RPC, so it must be a small multiple
	// of the lease, not the 10s interactive default.
	c, err := dfs.MountReplicas(addrs, vfs.Root, dfs.Strict, dfs.Options{CallTimeout: 500 * time.Millisecond})
	if err != nil {
		return res, err
	}
	defer c.Close() //yancvet:allow errdrop scenario teardown, replicas close right after
	if err := c.MkdirAll("/flows", 0o755); err != nil {
		return res, err
	}

	victim := -1
	var faultTime time.Time
	acked := make(map[int]bool)
	for i := 0; i < writes; i++ {
		if i == writes/2 {
			victim = leaderOf(-1)
			if victim < 0 {
				return res, fmt.Errorf("leader vanished before fault injection")
			}
			faultTime = time.Now()
			switch mode {
			case "leader-kill":
				reps[victim].Close()
			case "leader-partition":
				injs[victim].Partition()
			case "asym-partition":
				// One-way: the leader still sends heartbeats but hears no
				// acks and no clients; only its lease can dethrone it.
				injs[victim].PartitionDir(faultnet.Inbound)
			}
		}
		entry := fmt.Sprintf("e16-%04d\n", i)
		if err := c.AppendFile("/flows/log", []byte(entry), 0o644); err == nil {
			acked[i] = true
		}
	}
	if mode != "leader-kill" {
		injs[victim].Heal()
	}

	// Convergence: every surviving replica's log settles on an identical
	// sequence containing each acknowledged entry exactly once.
	live := []int{}
	for i := 0; i < n; i++ {
		if !(mode == "leader-kill" && i == victim) {
			live = append(live, i)
		}
	}
	audit := func() (lost, dups int, identical bool) {
		identical = true
		var ref string
		for k, i := range live {
			b, _ := fss[i].Proc(vfs.Root).ReadFile("/flows/log")
			s := string(b)
			if k == 0 {
				ref = s
				for w := 0; w < writes; w++ {
					cnt := strings.Count(s, fmt.Sprintf("e16-%04d\n", w))
					if acked[w] && cnt == 0 {
						lost++
					}
					if cnt > 1 {
						dups++
					}
				}
			} else if s != ref {
				identical = false
			}
		}
		return lost, dups, identical
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		lost, dups, identical := audit()
		if identical && lost == 0 && dups == 0 {
			res.convergence = time.Since(faultTime)
			break
		}
		if time.Now().After(deadline) {
			res.lost, res.dups = lost, dups
			res.convergence = time.Since(faultTime)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.acked = len(acked)
	st := c.Stats()
	res.failovers, res.replayed = st.Failovers, st.ReplayedWrites
	return res, nil
}
