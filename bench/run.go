package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"yanc/internal/apps"
	"yanc/internal/benchutil"
	"yanc/internal/libyanc"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// config is what one run is asked to do.
type config struct {
	workload *workload
	seed     int64
	// seconds is the measured time: half fixed-rate phase, half capacity
	// phase. The warm-up (seconds/12) and the drain are extra.
	seconds float64
	trace   bool
	// setups is how many times the rig is built and filled; setup_s is the
	// median. scale divides the resident sets (the tier-1 smoke test runs
	// a small tree).
	setups  int
	scale   int
	drain   time.Duration // how long the drain may take before operations count as failed
	dropNth uint64        // fault injection: sink 1 loses its Nth flow-mod
}

// inFlightWindow bounds issued − applied in the capacity phase, so the
// backlog cannot grow and completions per second is the system's rate,
// not the generator's.
const inFlightWindow = 64

// run is the state of one benchmark run.
type run struct {
	cfg   config
	wl    *workload
	epoch time.Time
	rig   *rig
	trk   *tracker
	tr    *tracer // nil unless tracing
	rng   *rand.Rand

	// op stream state
	nextOp  int
	nextIdx int
	live    []liveFlow // oldest first
	misses  int
	lag     []float64 // generator lateness in the fixed-rate phase, µs

	// write path
	put    func(o *op, idx int, spec yancfs.FlowSpec) error
	del    func(o *op, idx int) error
	ring   *libyanc.FlowRing
	reaped chan error
	router *apps.Router

	scan scanner
}

// result is everything a run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       envBlock           `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Latency   latencySummary     `json:"latency"`
	Notes     map[string]float64 `json:"notes"`
}

// sleepUntil blocks until due (since epoch). time.Sleep rounds short waits
// up to a millisecond on Linux, which at 4,000 ops/s would turn the
// schedule into bursts of four; nanosleep keeps the median lateness under
// 100 µs.
func sleepUntil(epoch time.Time, due time.Duration) {
	for {
		d := due - time.Since(epoch)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && !errors.Is(err, syscall.EINTR) {
			return
		}
	}
}

func (r *run) newOp(phase int, due time.Duration) *op {
	o := &op{id: r.nextOp, phase: phase, due: due, timed: true}
	r.nextOp++
	return o
}

// openLoop issues operations on a fixed schedule: operation i is due at
// start + i/rate whether or not the system kept up, and its latency is
// measured from that due time.
func (r *run) openLoop(phase int, dur time.Duration, rate float64) error {
	start := time.Since(r.epoch)
	interval := float64(time.Second) / rate
	for i := 0; ; i++ {
		due := start + time.Duration(float64(i)*interval)
		if due >= start+dur {
			return nil
		}
		sleepUntil(r.epoch, due)
		if phase == phFixed {
			r.lag = append(r.lag, float64(time.Since(r.epoch)-due)/float64(time.Microsecond))
		}
		if err := r.wl.step(r, r.newOp(phase, due)); err != nil {
			return err
		}
	}
}

// closedLoop issues operations as fast as the in-flight window allows.
func (r *run) closedLoop(phase int, dur time.Duration) error {
	end := time.Since(r.epoch) + dur
	timeout := time.NewTimer(dur)
	defer timeout.Stop()
	for {
		select {
		case r.trk.slots <- struct{}{}:
		case <-timeout.C:
			return nil
		}
		now := time.Since(r.epoch)
		if now >= end {
			<-r.trk.slots
			return nil
		}
		o := r.newOp(phase, now)
		o.window = true
		if err := r.wl.step(r, o); err != nil {
			return err
		}
	}
}

// useFile routes the op stream through plain file I/O, the paper's
// interface.
func (r *run) useFile() {
	p := r.rig.p
	r.put = func(o *op, idx int, spec yancfs.FlowSpec) error {
		r.tr.issued(o, idx)
		_, err := yancfs.WriteFlow(p, flowPath(idx), spec)
		r.tr.committed(o.id)
		return err
	}
	r.del = func(o *op, idx int) error {
		r.tr.issued(o, idx)
		return yancfs.DeleteFlow(p, flowPath(idx))
	}
}

// useRing routes the op stream through a libyanc.FlowRing. A reaper
// goroutine drains completions and keeps the first per-entry error.
func (r *run) useRing() {
	ring := libyanc.New(r.rig.y).NewFlowRing(libyanc.RingConfig{SQDepth: 1024})
	r.ring = ring
	r.reaped = make(chan error, 1)
	go func() {
		var first error
		for {
			e, ok := ring.Reap(true)
			if !ok {
				r.reaped <- first
				return
			}
			if e.Err != nil && first == nil {
				first = fmt.Errorf("ring %s: %w", e.Path, e.Err)
			}
			if !e.Installed && e.Tag > 0 {
				r.tr.committed(int(e.Tag - 1))
			}
		}
	}()
	r.put = func(o *op, idx int, spec yancfs.FlowSpec) error {
		r.tr.issued(o, idx)
		return ring.Submit(libyanc.SQE{Op: libyanc.OpPut, Path: flowPath(idx), Spec: spec, Tag: uint64(o.id + 1)})
	}
	r.del = func(o *op, idx int) error {
		r.tr.issued(o, idx)
		return ring.Submit(libyanc.SQE{Op: libyanc.OpDelete, Path: flowPath(idx), Tag: uint64(o.id + 1)})
	}
}

// closeRing flushes and closes the ring and reports any entry that failed.
func (r *run) closeRing() error {
	if r.ring == nil {
		return nil
	}
	err := r.ring.Close()
	if rerr := <-r.reaped; err == nil {
		err = rerr
	}
	r.ring = nil
	return err
}

// setUp builds the rig, connects the sinks and fills the resident set. It
// returns how long that took, garbage collections excluded, and the
// live-heap growth per resident flow.
func (r *run) setUp() (elapsed time.Duration, heapPerFlow float64, err error) {
	wl := r.wl
	r.trk = newTracker(r.epoch)
	if r.tr != nil {
		r.trk.onDone = r.tr.applied
	}
	start := time.Now()
	if r.rig, err = newRig(); err != nil {
		return 0, 0, err
	}
	// The fill rides a flow ring whatever the workload: the resulting
	// tree is byte-identical to file I/O's (TestPutFlowMatchesFileIOLayout)
	// and the live heap it leaves is the same from run to run.
	r.useRing()
	var hook func(flowPath string, version uint64)
	if wl.ring {
		hook = r.ring.InstallHook()
	}
	if r.tr != nil {
		hook = r.tr.chain(hook)
	}
	r.rig.d.FlowInstalledHook = hook
	if err := r.rig.connect(r.trk.observe, r.cfg.dropNth); err != nil {
		return 0, 0, err
	}
	if wl.router {
		if err := r.buildTopology(); err != nil {
			return 0, 0, err
		}
	}
	build := time.Since(start)

	// Two collections: what the first one's sweep and finalizers free of an
	// earlier rig is only gone after the second.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	start = time.Now()
	n := wl.resident * nSwitches / r.cfg.scale
	r.nextIdx, r.live = 0, r.live[:0]
	for i := 0; i < n; i++ {
		if err := r.create(&op{id: -1, phase: phSetup}); err != nil {
			return 0, 0, err
		}
	}
	if err := r.ring.Flush(); err != nil {
		return 0, 0, err
	}
	if !wl.ring {
		if err := r.closeRing(); err != nil {
			return 0, 0, err
		}
		r.useFile()
	}
	if !r.trk.waitIdle(60 * time.Second) {
		return 0, 0, fmt.Errorf("bench: resident fill not applied: %d flows outstanding", r.trk.outstanding())
	}
	fill := time.Since(start)

	runtime.GC()
	runtime.ReadMemStats(&after)
	heapPerFlow = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	return build + fill, heapPerFlow, nil
}

// buildTopology writes the reactive_miss network into the file system the
// way an administrator (or topod) would, and starts the shipped router.
func (r *run) buildTopology() error {
	p := r.rig.p
	if err := yancfs.AddHost(p, "/", "h1", h1MAC.String(), "10.0.0.1", "sw1", 1); err != nil {
		return err
	}
	if err := yancfs.AddHost(p, "/", "h2", h2MAC.String(), h2IP.String(), "sw2", 1); err != nil {
		return err
	}
	if err := yancfs.SetPeer(p, "/switches/sw1/ports/2", "/switches/sw2/ports/2"); err != nil {
		return err
	}
	if err := yancfs.SetPeer(p, "/switches/sw2/ports/2", "/switches/sw1/ports/2"); err != nil {
		return err
	}
	r.router = apps.NewRouter(p, "/")
	return r.router.Start()
}

// tearDown stops everything the run started.
func (r *run) tearDown() error {
	if r.router != nil {
		r.router.Stop()
		r.router = nil
	}
	err := r.closeRing()
	if r.rig != nil {
		if cerr := r.rig.close(); err == nil {
			err = cerr
		}
		r.rig = nil
	}
	return err
}

// scanner is the paper's `find /net -name tp.dst | xargs grep` admin
// (§5.4): it lists every switch's flows and reads each one back.
type scanner struct {
	stop atomic.Bool
	wg   sync.WaitGroup
	at   []time.Duration // one entry per flow read and parsed
	bad  []string        // flows that did not parse back to their spec
	// cpu marks the scanner thread's own CPU time every 50 ms, so that
	// cpu_us_per_op can leave the scanner out: it is a closed loop that
	// soaks up whatever CPU the writes leave idle.
	cpu [][2]time.Duration // (since epoch, thread CPU)
}

// pass walks both switches once, or until stopped. A flow deleted between
// the listing and the read is skipped, not an error; so is one still being
// written (no committed version yet).
func (s *scanner) pass(p *vfs.Proc, epoch time.Time) {
	for sw := 0; sw < nSwitches; sw++ {
		dir := switchPath(sw)
		names, err := yancfs.ListFlows(p, dir)
		if err != nil {
			s.bad = append(s.bad, fmt.Sprintf("list %s: %v", dir, err))
			return
		}
		for _, name := range names {
			if s.stop.Load() {
				return
			}
			path := dir + "/flows/" + name
			if v, err := yancfs.FlowVersion(p, path); err != nil || v == 0 {
				continue
			}
			spec, err := yancfs.ReadFlow(p, path)
			if err != nil {
				if errors.Is(err, vfs.ErrNotExist) {
					continue
				}
				s.bad = append(s.bad, fmt.Sprintf("read %s: %v", path, err))
				continue
			}
			if idx, err := strconv.Atoi(strings.TrimPrefix(name, "f")); err == nil {
				if want := benchutil.SampleFlowSpec(idx).Match.Key(); spec.Match.Key() != want {
					s.bad = append(s.bad, fmt.Sprintf("%s: match %q, want %q", path, spec.Match.Key(), want))
				}
			}
			now := time.Since(epoch)
			s.at = append(s.at, now)
			if len(s.cpu) == 0 || now-s.cpu[len(s.cpu)-1][0] >= 50*time.Millisecond {
				s.cpu = append(s.cpu, [2]time.Duration{now, cpuTime(syscall.RUSAGE_THREAD)})
			}
		}
	}
}

// cpuBetween is the scanner thread's CPU time between two instants, to
// the nearest marks.
func (s *scanner) cpuBetween(from, to time.Duration) time.Duration {
	at := func(t time.Duration) time.Duration {
		i := sort.Search(len(s.cpu), func(i int) bool { return s.cpu[i][0] >= t })
		if i == len(s.cpu) {
			i--
		}
		return s.cpu[i][1]
	}
	if len(s.cpu) == 0 {
		return 0
	}
	return at(to) - at(from)
}

func (s *scanner) start(p *vfs.Proc, epoch time.Time) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Own thread, so RUSAGE_THREAD is the scanner's CPU and nothing else's.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for !s.stop.Load() {
			s.pass(p, epoch)
		}
	}()
}

func (s *scanner) halt() {
	s.stop.Store(true)
	s.wg.Wait()
}

// cpuTime is user+system CPU of the process (RUSAGE_SELF) or the calling
// thread (RUSAGE_THREAD).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rate is events per second over [from, to).
func rate(at []time.Duration, from, to time.Duration) float64 {
	n := 0
	for _, t := range at {
		if t >= from && t < to {
			n++
		}
	}
	return float64(n) / (to - from).Seconds()
}

// execute runs the whole shape: set-up (timed), warm-up, fixed-rate
// phase, capacity phase, drain, verify.
func execute(cfg config) (res *result, err error) {
	wl := cfg.workload
	r := &run{cfg: cfg, wl: wl, epoch: time.Now(), rng: rand.New(rand.NewSource(cfg.seed))}
	if cfg.trace {
		r.tr = newTracer(r)
	}
	res = &result{
		Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Env: environment(),
		EndToEnd: map[string]float64{}, Notes: map[string]float64{},
	}
	defer func() {
		if terr := r.tearDown(); err == nil && terr != nil {
			err = terr
		}
	}()

	secs := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	fixedDur, capDur, warmDur := secs(cfg.seconds/2), secs(cfg.seconds/2), secs(cfg.seconds/12)

	// Set-up, several times over; the last rig is the one measured.
	var setups []float64
	var heapPerFlow float64
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			if err := r.tearDown(); err != nil {
				return nil, err
			}
		}
		elapsed, heap, err := r.setUp()
		if err != nil {
			return nil, err
		}
		setups = append(setups, elapsed.Seconds())
		if i == 0 {
			// Later rigs start beside the garbage of the earlier ones.
			heapPerFlow = heap
		}
	}
	if wl.scanner {
		r.scan.start(r.rig.p, r.epoch)
	}
	warmStart := time.Now()
	if err := r.openLoop(phSetup, warmDur, wl.rate); err != nil {
		return nil, err
	}
	res.EndToEnd["setup_s"] = median(setups) + time.Since(warmStart).Seconds()
	res.EndToEnd["heap_bytes_per_flow"] = heapPerFlow

	if r.tr != nil {
		if err := r.tr.baseline(capDur / 2); err != nil {
			return nil, err
		}
		capDur /= 2
		r.tr.beginMeasured()
	}

	// Fixed-rate phase, open loop.
	cpu0 := cpuTime(syscall.RUSAGE_SELF)
	fixedFrom := time.Since(r.epoch)
	if err := r.openLoop(phFixed, fixedDur, wl.rate); err != nil {
		return nil, err
	}
	fixedTo := time.Since(r.epoch)
	cpu := cpuTime(syscall.RUSAGE_SELF) - cpu0

	// Capacity phase, closed loop.
	capFrom := time.Since(r.epoch)
	if err := r.closedLoop(phCapacity, capDur); err != nil {
		return nil, err
	}
	capTo := time.Since(r.epoch)
	if r.tr != nil {
		r.tr.endMeasured()
	}
	if wl.scanner {
		r.scan.halt()
	}

	// Drain and verify.
	drained := r.trk.waitIdle(cfg.drain)
	if r.ring != nil {
		if err := r.closeRing(); err != nil {
			res.Problems = append(res.Problems, err.Error())
		}
	}
	r.verify(res, drained)
	if len(r.scan.bad) > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("scanner: %d flows read back wrong, first: %s", len(r.scan.bad), r.scan.bad[0]))
	}
	if wl.scanner {
		res.EndToEnd["scan_flows_per_s"] = rate(r.scan.at, fixedFrom, fixedTo)
	}

	trk := r.trk
	trk.mu.Lock()
	fixed, capacity := trk.done[phFixed], trk.done[phCapacity]
	trk.mu.Unlock()
	capAt := make([]time.Duration, len(capacity))
	for i, s := range capacity {
		capAt[i] = s.At
	}
	// Latency windows hold ≥1,000 operations, so each window's p99 has ten
	// samples beyond it.
	window := time.Second
	if perOp := secs(1000 / wl.rate); perOp > window {
		window = perOp
	}
	res.Latency = summarize(fixed, fixedFrom, fixedTo, window)
	res.EndToEnd["capacity_per_s"] = rate(capAt, capFrom, capTo)
	res.EndToEnd["lat_p10_ms"] = res.Latency.P10
	res.EndToEnd["lat_p50_ms"] = res.Latency.P50
	res.EndToEnd["lat_p99_ms"] = res.Latency.P99
	if len(fixed) > 0 {
		cpu -= r.scan.cpuBetween(fixedFrom, fixedTo)
		res.EndToEnd["cpu_us_per_op"] = float64(cpu) / float64(time.Microsecond) / float64(len(fixed))
	}
	res.EndToEnd["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	lag := sortedCopy(r.lag)
	res.Notes["gen.lag_p50_us"] = quantile(lag, 0.5)
	res.Notes["gen.lag_p99_us"] = quantile(lag, 0.99)
	res.Notes["fixed_rate_per_s"] = wl.rate
	res.Notes["fixed_phase_s"] = (fixedTo - fixedFrom).Seconds()
	res.Notes["capacity_phase_s"] = capDur.Seconds()
	res.Correct = len(res.Problems) == 0 && res.Failed == 0

	if r.tr != nil {
		if err := r.tr.finish(res, capAt, capFrom, capTo); err != nil {
			return nil, err
		}
	}
	return res, nil
}
