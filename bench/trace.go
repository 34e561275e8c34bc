package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"yanc/bench/ofsink"
	"yanc/internal/apps"
	"yanc/internal/benchutil"
	"yanc/internal/libyanc"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// The traced run measures each layer from outside: it stamps the calls the
// benchmark itself makes into a layer, chains a stamping closure in front
// of the driver's FlowInstalledHook, owns two extra watches, reads the
// layers' own counters before and after the measured phases, and runs a
// battery of isolated calls afterwards. Stamps inside the program are a
// later change (ROADMAP item 1a). End-to-end numbers never come from a
// traced run; trace.overhead_share says what the tracing cost.

// stamps are one operation's boundary times since the run's epoch; zero
// means the boundary was not seen.
type stamps struct {
	phase  int
	flow   int // flow index the op wrote, -1 for a table miss
	due    time.Duration
	issue  time.Duration // the generator made the call
	commit time.Duration // WriteFlow returned / the ring's commit CQE was reaped
	watch  time.Duration // a bench-owned watch on /switches saw the version write
	hook   time.Duration // FlowInstalledHook: the flow-mod is on the socket
	sink   time.Duration // the sink applied the operation's last part

	// reactive_miss
	event    time.Duration // a bench-owned watch saw the message in the router's buffer
	versions time.Duration // … saw the last path flow's version write
}

type tracer struct {
	r  *run
	on atomic.Bool

	mu       sync.Mutex
	ops      []stamps    // by op id
	opOfFlow map[int]int // flow index -> latest op id
	missOps  []int       // op ids of the misses issued since tracing began
	missBase int         // misses the router handled before tracing began
	events   int         // messages seen in the router's buffer

	committedN, hookedN atomic.Int64
	backlogMax          int64
	watchQueueMax       int

	flows, msgs *vfs.Watch
	stop        chan struct{}
	wg          sync.WaitGroup

	baselineCap float64
	begin, end  counters
}

func newTracer(r *run) *tracer {
	return &tracer{r: r, opOfFlow: make(map[int]int), stop: make(chan struct{})}
}

func (t *tracer) now() time.Duration { return time.Since(t.r.epoch) }

// slot returns the stamps of op id, growing the table. Caller holds mu.
func (t *tracer) slot(id int) *stamps {
	for len(t.ops) <= id {
		t.ops = append(t.ops, stamps{flow: -1})
	}
	return &t.ops[id]
}

// issued stamps the generator's call for op o; flow is the flow index it
// writes, or -1 for a table miss. Like committed it is a no-op on a nil
// tracer, so the write paths call both unconditionally.
func (t *tracer) issued(o *op, flow int) {
	if t == nil || !t.on.Load() || o.id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	s := t.slot(o.id)
	s.phase, s.flow, s.due, s.issue = o.phase, flow, o.due, now
	if flow >= 0 {
		t.opOfFlow[flow] = o.id
	} else {
		t.missOps = append(t.missOps, o.id)
	}
	t.mu.Unlock()
}

func (t *tracer) committed(id int) {
	if t == nil || !t.on.Load() || id < 0 {
		return
	}
	now := t.now()
	t.committedN.Add(1)
	t.mu.Lock()
	if id < len(t.ops) && t.ops[id].issue != 0 {
		t.ops[id].commit = now
	}
	t.mu.Unlock()
}

// flowIndex extracts i from …/flows/f<i>[/version].
func flowIndex(name string) (int, bool) {
	if !strings.HasPrefix(name, "f") {
		return 0, false
	}
	i, err := strconv.Atoi(name[1:])
	return i, err == nil
}

// chain puts a stamping closure in front of next, the FlowInstalledHook
// the run would have had anyway (nil off the ring).
func (t *tracer) chain(next func(flowPath string, version uint64)) func(string, uint64) {
	return func(flowPath string, version uint64) {
		t.hooked(flowPath)
		if next != nil {
			next(flowPath, version)
		}
	}
}

func (t *tracer) hooked(flowPath string) {
	if !t.on.Load() {
		return
	}
	now := t.now()
	t.hookedN.Add(1)
	idx, ok := flowIndex(vfs.Base(flowPath))
	if !ok {
		return
	}
	t.mu.Lock()
	if id, ok := t.opOfFlow[idx]; ok && t.ops[id].hook == 0 {
		t.ops[id].hook = now
	}
	t.mu.Unlock()
}

// applied is the tracker's completion callback (tracker.mu is held).
func (t *tracer) applied(o *op, at time.Duration) {
	if !t.on.Load() || o.id < 0 {
		return
	}
	t.mu.Lock()
	if o.id < len(t.ops) && t.ops[o.id].issue != 0 {
		t.ops[o.id].sink = at
	}
	t.mu.Unlock()
}

// baseline runs an untraced capacity phase, then switches tracing on: the
// watches are added and the hook closure starts stamping. The ratio of the
// traced capacity phase to this one is trace.overhead_share.
func (t *tracer) baseline(dur time.Duration) error {
	r := t.r
	from := t.now()
	if err := r.closedLoop(phBaseline, dur); err != nil {
		return err
	}
	to := t.now()
	if !r.trk.waitIdle(r.cfg.drain) {
		return fmt.Errorf("bench: baseline phase did not drain")
	}
	r.trk.mu.Lock()
	at := make([]time.Duration, len(r.trk.done[phBaseline]))
	for i, s := range r.trk.done[phBaseline] {
		at[i] = s.At
	}
	r.trk.mu.Unlock()
	t.baselineCap = rate(at, from, to)

	t.missBase = r.misses
	var err error
	// 64 Ki events: the file-I/O workloads write ~20 files per flow under
	// /switches and every one of them reaches this watch.
	t.flows, err = r.rig.p.AddWatch("/switches", vfs.OpWrite, vfs.Recursive(), vfs.BufferSize(1<<16))
	if err != nil {
		return err
	}
	if r.wl.router {
		t.msgs, err = r.rig.p.AddWatch("/events/router", vfs.OpCreate, vfs.BufferSize(1<<16))
		if err != nil {
			return err
		}
	}
	t.wg.Add(2)
	go t.watchLoop()
	go t.sampleLoop()
	t.on.Store(true)
	return nil
}

func (t *tracer) watchLoop() {
	defer t.wg.Done()
	var msgs <-chan vfs.Event
	if t.msgs != nil {
		msgs = t.msgs.C
	}
	for {
		select {
		case <-t.stop:
			return
		case ev := <-t.flows.C:
			if ev.Op != vfs.OpWrite || vfs.Base(ev.Path) != yancfs.FileVersion {
				continue
			}
			now := t.now()
			name := vfs.Base(vfs.Dir(ev.Path))
			t.mu.Lock()
			if idx, ok := flowIndex(name); ok {
				if id, ok := t.opOfFlow[idx]; ok && t.ops[id].watch == 0 {
					t.ops[id].watch = now
				}
			} else if rest, ok := strings.CutPrefix(name, "router-"); ok {
				// router-<seq>-<switch>: the router numbers the paths it
				// installs from 1, in the order it handled the misses.
				seq, _, _ := strings.Cut(rest, "-")
				if n, err := strconv.Atoi(seq); err == nil {
					if k := n - 1 - t.missBase; k >= 0 && k < len(t.missOps) {
						t.ops[t.missOps[k]].versions = now
					}
				}
			}
			t.mu.Unlock()
		case ev := <-msgs:
			if ev.Op != vfs.OpCreate {
				continue
			}
			now := t.now()
			t.mu.Lock()
			if t.events < len(t.missOps) {
				t.ops[t.missOps[t.events]].event = now
			}
			t.events++
			t.mu.Unlock()
		}
	}
}

// sampleLoop polls the two queue depths that have no high-water counter.
func (t *tracer) sampleLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	own := map[uint64]bool{t.flows.Info().ID: true} // the tracer's own queues are not the system's
	if t.msgs != nil {
		own[t.msgs.Info().ID] = true
	}
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		depth := 0
		for _, w := range t.r.rig.y.VFS().WatchInfos() {
			if w.Depth > depth && !own[w.ID] {
				depth = w.Depth
			}
		}
		backlog := t.committedN.Load() - t.hookedN.Load()
		t.mu.Lock()
		if depth > t.watchQueueMax {
			t.watchQueueMax = depth
		}
		if backlog > t.backlogMax {
			t.backlogMax = backlog
		}
		t.mu.Unlock()
	}
}

// counters are the layers' own counters, read at both ends of the
// measured phases.
type counters struct {
	vfsOps  vfs.OpStats
	locks   vfs.LockStats
	events  yancfs.EventStats
	ring    libyanc.RingStats
	sink    [nSwitches]ofsink.Counts
	pktin   [3]uint64 // seen, shed, batches on sw1
	cpu     time.Duration
	runtime []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func (t *tracer) read() counters {
	r := t.r
	fs := r.rig.y.VFS()
	c := counters{vfsOps: fs.Stats(), locks: fs.LockStats(), events: r.rig.y.EventStats(), cpu: cpuTime(syscall.RUSAGE_SELF)}
	if r.ring != nil {
		c.ring = r.ring.Stats()
	}
	for i, s := range r.rig.sinks {
		c.sink[i] = s.Counts()
	}
	// /.proc/driver/sw1/pktin: "seen N\nshed N\nbatches N\n"
	if text, err := r.rig.p.ReadString("/.proc/driver/sw1/pktin"); err == nil {
		for i, line := range strings.Split(text, "\n") {
			if _, v, ok := strings.Cut(line, " "); ok && i < len(c.pktin) {
				c.pktin[i], _ = strconv.ParseUint(v, 10, 64)
			}
		}
	}
	c.runtime = make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		c.runtime[i].Name = name
	}
	metrics.Read(c.runtime)
	return c
}

func (t *tracer) beginMeasured() { t.begin = t.read() }
func (t *tracer) endMeasured()   { t.end = t.read() }

// span is one interval of one operation, as written to the trace file.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// spansOf turns an operation's stamps into spans. Every span's parent is
// the operation's root span "op" (due time → applied at the sink). write
// names the write path the run used: yancfs.writeflow or
// libyanc.submit_commit.
func spansOf(id int, s stamps, write string) []span {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var out []span
	add := func(name string, from, to time.Duration) {
		if from == 0 || to == 0 {
			return
		}
		if to < from {
			to = from // the two stamps come from different goroutines
		}
		parent := "op"
		if name == "op" {
			parent = ""
		}
		out = append(out, span{Name: name, Op: id, Parent: parent, Start: us(from), End: us(to)})
	}
	add("op", s.due, s.sink)
	add("gen.lag", s.due, s.issue)
	if s.flow >= 0 {
		add(write, s.issue, s.commit)
		add("vfs.watch_dispatch", s.commit, s.watch)
		add("driver.react", s.commit, s.hook)
		add("sink.wire", s.hook, s.sink)
	} else {
		add("driver.pktin_ingest", s.issue, s.event)
		add("apps.router_handle", s.event, s.versions)
	}
	return out
}

// maxTraceOps bounds the trace file; the per-layer table uses every
// fixed-rate operation regardless.
const maxTraceOps = 20000

// finish stops the tracing goroutines, fills res.PerLayer from the spans,
// the counter deltas and the isolated-call batteries, and writes the spans
// to bench/out/trace-<workload>.json.
func (t *tracer) finish(res *result, capAt []time.Duration, capFrom, capTo time.Duration) error {
	r := t.r
	t.on.Store(false)
	close(t.stop)
	t.wg.Wait()
	overflows := uint64(0)
	for _, w := range []*vfs.Watch{t.flows, t.msgs} {
		if w != nil {
			overflows += w.Info().Overflows
			w.Close()
		}
	}
	for _, w := range r.rig.y.VFS().WatchInfos() {
		overflows += w.Overflows
	}

	pl := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		pl[m.name] = 0
	}
	res.PerLayer = pl

	// Spans of the fixed-rate phase, where the offered load is defined.
	byName := map[string][]float64{}
	var file struct {
		Env        envBlock `json:"env"`
		Workload   string   `json:"workload"`
		Seed       int64    `json:"seed"`
		OpsTraced  int      `json:"ops_traced"`
		OpsWritten int      `json:"ops_written"`
		Spans      []span   `json:"spans"`
	}
	file.Env, file.Workload, file.Seed = res.Env, res.Workload, res.Seed
	write := "yancfs.writeflow"
	if r.wl.ring {
		write = "libyanc.submit_commit"
	}
	t.mu.Lock()
	for id, s := range t.ops {
		if s.phase != phFixed || s.issue == 0 {
			continue
		}
		spans := spansOf(id, s, write)
		for _, sp := range spans {
			byName[sp.Name] = append(byName[sp.Name], sp.End-sp.Start)
		}
		file.OpsTraced++
		if file.OpsWritten < maxTraceOps {
			file.OpsWritten++
			file.Spans = append(file.Spans, spans...)
		}
	}
	backlogMax, queueMax := t.backlogMax, t.watchQueueMax
	t.mu.Unlock()
	pct := func(span string, q float64) float64 { return quantile(sortedCopy(byName[span]), q) }
	pl[write+"_p50_us"], pl[write+"_p99_us"] = pct(write, 0.5), pct(write, 0.99)
	pl["vfs.watch_dispatch_p50_us"], pl["vfs.watch_dispatch_p99_us"] = pct("vfs.watch_dispatch", 0.5), pct("vfs.watch_dispatch", 0.99)
	pl["driver.react_p50_us"], pl["driver.react_p99_us"] = pct("driver.react", 0.5), pct("driver.react", 0.99)
	pl["driver.pktin_ingest_p50_us"] = pct("driver.pktin_ingest", 0.5)
	pl["apps.router_handle_p50_us"], pl["apps.router_handle_p99_us"] = pct("apps.router_handle", 0.5), pct("apps.router_handle", 0.99)
	pl["sink.wire_p50_us"] = pct("sink.wire", 0.5)
	pl["gen.lag_p99_us"] = res.Notes["gen.lag_p99_us"]
	pl["vfs.watch_queue_max"] = float64(queueMax)
	pl["vfs.watch_overflows"] = float64(overflows)
	pl["driver.backlog_max"] = float64(backlogMax)

	// Counter deltas over the measured phases (fixed-rate + capacity).
	ops := res.Notes["ops_completed"]
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	b, e := t.begin, t.end
	pl["vfs.ops_per_op"] = ratio(float64(e.vfsOps.Total()-b.vfsOps.Total()), ops)
	mutating := func(s vfs.OpStats) uint64 { return s.Writes + s.Creates + s.Removes + s.Renames + s.Links }
	pl["vfs.mutating_ops_per_op"] = ratio(float64(mutating(e.vfsOps)-mutating(b.vfsOps)), ops)
	acquired := (e.locks.TreeRead + e.locks.TreeWrite + e.locks.ShardRead + e.locks.ShardWrite) -
		(b.locks.TreeRead + b.locks.TreeWrite + b.locks.ShardRead + b.locks.ShardWrite)
	pl["vfs.contended_share"] = ratio(float64(e.locks.Contended()-b.locks.Contended()), float64(acquired))
	fallback := float64(e.locks.ResolveFallback - b.locks.ResolveFallback)
	pl["vfs.resolve_fallback_share"] = ratio(fallback, fallback+float64(e.locks.ResolveLockfree-b.locks.ResolveLockfree))
	pl["yancfs.events_dropped"] = float64(e.events.Drops - b.events.Drops)
	pl["yancfs.events_batch_mean"] = ratio(float64(e.events.Messages-b.events.Messages), float64(e.events.Batches-b.events.Batches))
	pl["libyanc.batch_mean"] = ratio(float64(e.ring.Submitted-b.ring.Submitted), float64(e.ring.Drains-b.ring.Drains))
	pl["libyanc.stalls"] = float64(e.ring.Stalls - b.ring.Stalls)
	pl["libyanc.drain_us_per_op"] = ratio(float64(e.ring.DrainNanos-b.ring.DrainNanos)/1e3, float64(e.ring.Completed-b.ring.Completed))
	var mods, modBytes uint64
	for i := range e.sink {
		mods += e.sink[i].FlowAdds + e.sink[i].FlowDeletes - b.sink[i].FlowAdds - b.sink[i].FlowDeletes
		modBytes += e.sink[i].FlowModBytes - b.sink[i].FlowModBytes
	}
	pl["driver.flowmods_per_op"] = ratio(float64(mods), ops)
	pl["openflow.bytes_per_flowmod"] = ratio(float64(modBytes), float64(mods))
	pl["driver.pktin_shed"] = float64(e.pktin[1] - b.pktin[1])
	pl["driver.pktin_batch_mean"] = ratio(float64(e.pktin[0]-b.pktin[0]), float64(e.pktin[2]-b.pktin[2]))
	rt := func(i int) float64 {
		switch e.runtime[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(e.runtime[i].Value.Uint64() - b.runtime[i].Value.Uint64())
		case metrics.KindFloat64:
			return e.runtime[i].Value.Float64() - b.runtime[i].Value.Float64()
		}
		return 0
	}
	pl["rt.allocs_per_op"] = ratio(rt(0), ops)
	pl["rt.alloc_bytes_per_op"] = ratio(rt(1), ops)
	pl["rt.gc_cpu_share"] = ratio(rt(2), (e.cpu - b.cpu).Seconds())
	pl["rt.gc_pause_p99_us"] = histogramP99(b.runtime[3].Value, e.runtime[3].Value) * 1e6
	if r.router != nil {
		_, floods := r.router.Stats()
		pl["apps.floods"] = float64(floods)
	}
	traced := rate(capAt, capFrom, capTo)
	pl["trace.overhead_share"] = 1 - ratio(traced, t.baselineCap)
	res.Notes["capacity_per_s_untraced_baseline"] = t.baselineCap

	if err := t.batteries(pl); err != nil {
		return err
	}
	headroom, err := ofsink.Headroom(200000 / r.cfg.scale)
	if err != nil {
		return err
	}
	res.Notes["sink.flowmods_per_s"] = headroom
	var problem string
	if pl["sink.headroom_ratio"], problem = checkHeadroom(headroom, traced); problem != "" {
		res.Problems = append(res.Problems, problem)
		res.Correct = false
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+res.Workload+".json"), data, 0o644)
}

// checkHeadroom is the harness's self-test: the sink must apply flow-mods
// at least ten times faster than the system under test completes
// operations, or the run measured the sink.
func checkHeadroom(sinkPerSec, capacityPerSec float64) (ratio float64, problem string) {
	if capacityPerSec > 0 {
		ratio = sinkPerSec / capacityPerSec
	}
	if ratio < 10 {
		problem = fmt.Sprintf("sink.headroom_ratio %.1f < 10: the sink (%.0f flow-mods/s) is too close to the measured capacity (%.0f/s)",
			ratio, sinkPerSec, capacityPerSec)
	}
	return ratio, problem
}

// histogramP99 is the 99th percentile of the observations a runtime
// histogram gained between two reads, as the upper edge of the bucket
// holding it. (The runtime only exposes pauses as a histogram.)
func histogramP99(before, after metrics.Value) float64 {
	if after.Kind() != metrics.KindFloat64Histogram || before.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	hb, ha := before.Float64Histogram(), after.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(ha.Counts))
	for i := range ha.Counts {
		delta[i] = ha.Counts[i] - hb.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total)*0.99 + 0.5)
	var seen uint64
	for i, n := range delta {
		if seen += n; seen >= rank {
			return ha.Buckets[i+1]
		}
	}
	return ha.Buckets[len(ha.Buckets)-1]
}

// batteries times each layer's public entry points alone: 2,000 calls each
// on a fresh file system with no driver watching, median per call.
func (t *tracer) batteries(pl map[string]float64) error {
	n := 2000 / t.r.cfg.scale
	medianUS := func(ns []float64) float64 { return median(ns) / 1e3 }
	timeEach := func(n int, f func(i int) error) ([]float64, error) {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := f(i); err != nil {
				return nil, err
			}
			out[i] = float64(time.Since(start))
		}
		return out, nil
	}

	y, err := yancfs.New()
	if err != nil {
		return err
	}
	p := y.Root()
	if _, err := yancfs.CreateSwitch(p, "/", "sw1"); err != nil {
		return err
	}
	path := func(i int) string { return fmt.Sprintf("/switches/sw1/flows/f%07d", i) }
	ns, err := timeEach(n, func(i int) error {
		_, err := yancfs.WriteFlow(p, path(i), benchutil.SampleFlowSpec(i))
		return err
	})
	if err != nil {
		return err
	}
	pl["yancfs.writeflow_alone_us"] = medianUS(ns)
	// FlowVersion + ReadFlow is exactly what the driver's syncFlow pays per
	// version write.
	ns, err = timeEach(n, func(i int) error {
		if _, err := yancfs.FlowVersion(p, path(i)); err != nil {
			return err
		}
		_, err := yancfs.ReadFlow(p, path(i))
		return err
	})
	if err != nil {
		return err
	}
	pl["yancfs.readback_alone_us"] = medianUS(ns)
	nodes := 0
	if err := p.Walk(path(0), func(string, vfs.Stat) error { nodes++; return nil }); err != nil {
		return err
	}
	pl["yancfs.nodes_per_flow"] = float64(nodes)

	// Packet-in delivery and consumption, in bursts that fit the buffer.
	buf, w, err := yancfs.Subscribe(p, "/", "probe")
	if err != nil {
		return err
	}
	defer w.Close()
	var deliver, consume []float64
	burst := n / 4
	for done := 0; done < n; done += burst {
		ns, err := timeEach(burst, func(i int) error {
			frame := missFrame(done + i)
			return y.DeliverPacketIn("/", "sw1", &openflow.PacketIn{
				BufferID: openflow.NoBuffer, TotalLen: uint16(len(frame)), InPort: 1, Data: frame,
			})
		})
		if err != nil {
			return err
		}
		deliver = append(deliver, ns...)
		msgs, err := yancfs.PendingEvents(p, buf)
		if err != nil {
			return err
		}
		ns, err = timeEach(len(msgs), func(i int) error {
			_, err := yancfs.ConsumePacketIn(p, msgs[i])
			return err
		})
		if err != nil {
			return err
		}
		consume = append(consume, ns...)
		for len(w.C) > 0 {
			<-w.C
		}
	}
	pl["yancfs.deliver_pktin_alone_us"] = medianUS(deliver)
	pl["yancfs.consume_pktin_alone_us"] = medianUS(consume)

	if t.r.wl.router {
		ns, err := timeEach(n, func(int) error {
			_, err := apps.LoadTopology(t.r.rig.p, "/")
			return err
		})
		if err != nil {
			return err
		}
		pl["apps.load_topology_alone_us"] = medianUS(ns)
	}

	// Codec calls are too short to time one by one.
	const codecCalls = 20000
	spec := benchutil.SampleFlowSpec(0)
	fm := &openflow.FlowMod{Command: openflow.FlowAdd, Match: spec.Match, Priority: spec.Priority,
		IdleTimeout: spec.IdleTimeout, BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, Actions: spec.Actions}
	start := time.Now()
	for i := 0; i < codecCalls; i++ {
		if _, err := (openflow.Codec13{}).Encode(fm); err != nil {
			return err
		}
	}
	pl["openflow.encode_flowmod_ns"] = float64(time.Since(start)) / codecCalls
	frame := missFrame(0)
	raw, err := openflow.Codec13{}.Encode(&openflow.PacketIn{BufferID: openflow.NoBuffer, TotalLen: uint16(len(frame)), InPort: 1, Data: frame})
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < codecCalls; i++ {
		if _, err := (openflow.Codec13{}).Decode(raw); err != nil {
			return err
		}
	}
	pl["openflow.decode_pktin_ns"] = float64(time.Since(start)) / codecCalls
	return nil
}
