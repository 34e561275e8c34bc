package driver

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// The driver's connection handling is multiplexed: a switch owns one
// goroutine, its reader, blocked in Conn.Read and parked on the runtime's
// network poller; everything else runs on one mux per driver:
//
//   - a small worker pool serving connections off a run queue,
//   - one recursive watch on <region>/switches, whose events demux only
//     classifies — switch, kind, name — and turns into marks on the
//     connection's flow table (a yancfs.Reconciler) or its port list, and
//   - one echo scheduler ticking for every connection.
//
// A SwitchConn carries one word of pending bits (ports, flows, pktin,
// echo); the flows bit runs a pass of its flow table
// (reconcile.go). Whoever has work for a connection sets a bit; the first
// bit set on an idle connection puts it on the run queue, and the worker
// that picks it up snapshots-and-clears the bits and serves them in that
// fixed order. At most one worker holds a connection at a time, so
// per-switch handling keeps the ordering a dedicated goroutine would
// provide while the goroutine count stays O(workers) + one parked reader
// per switch. There is no timer and no batching delay: a connection is
// served as soon as a worker is free, and how much one pass covers is
// however much was marked while the connection waited.
type mux struct {
	d          *Driver
	watch      *vfs.Watch
	echoMisses int

	qmu   sync.Mutex
	cond  *sync.Cond
	queue []*SwitchConn
	quit  bool

	quitCh chan struct{}
	// wg counts the mux's own goroutines and every connection's reader
	// (added under Driver.mu at registration, so no Add races stop's Wait).
	wg sync.WaitGroup
}

// muxWatchBuffer sizes the shared switches/ watch. Overflow is survivable
// (every connection reconciles its whole table) but at city scale a
// resync storm is exactly what we are trying to avoid, so the buffer is
// generous.
const muxWatchBuffer = 1 << 16

// muxWatchMask and muxWatchFiles are the switches/ watch's subscription:
// the ops and file names yancfs.ClassifyFlowEvent and classify act on.
// Every other field-file event in the region is never built.
const muxWatchMask = vfs.OpWrite | vfs.OpRemove | vfs.OpRename

func muxWatchFiles() []string { return append(yancfs.FlowEventFiles(), filePortDown) }

func newMux(d *Driver) (*mux, error) {
	w, err := d.Y.Root().AddWatch(vfs.Join(d.Region, yancfs.DirSwitches), muxWatchMask,
		vfs.Recursive(), vfs.Files(muxWatchFiles()...), vfs.BufferSize(muxWatchBuffer))
	if err != nil {
		return nil, err
	}
	m := &mux{d: d, watch: w, quitCh: make(chan struct{}), echoMisses: d.EchoMisses}
	if m.echoMisses <= 0 {
		m.echoMisses = DefaultEchoMisses
	}
	m.cond = sync.NewCond(&m.qmu)
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.demux()
	if d.EchoInterval > 0 {
		m.wg.Add(1)
		go m.echoLoop(d.EchoInterval)
	}
	return m, nil
}

// stop shuts every mux goroutine down and waits for them and for the
// connections' readers; called from Driver.Close after the connections
// are stopped, which is what makes each reader return.
func (m *mux) stop() {
	close(m.quitCh)
	m.qmu.Lock()
	m.quit = true
	m.qmu.Unlock()
	m.cond.Broadcast()
	m.watch.Close()
	m.wg.Wait()
}

// submit puts a connection on the run queue.
//
//yancvet:hotalloc
func (m *mux) submit(sc *SwitchConn) {
	m.qmu.Lock()
	if m.quit {
		m.qmu.Unlock()
		return
	}
	m.queue = append(m.queue, sc)
	m.qmu.Unlock()
	m.cond.Signal()
}

// worker serves connections off the run queue until the mux stops.
func (m *mux) worker() {
	defer m.wg.Done()
	for {
		m.qmu.Lock()
		for len(m.queue) == 0 && !m.quit {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.qmu.Unlock()
			return
		}
		sc := m.queue[0]
		m.queue[0] = nil
		m.queue = m.queue[1:]
		m.qmu.Unlock()
		sc.serve()
	}
}

// Pending bits, in the order serve works through them. Ports go first so
// an administrator's port change is not queued behind a table's worth of
// flows.
const (
	pendPorts uint32 = 1 << iota
	pendFlows
	pendPktin
	pendEcho
	// pendServing is set while a worker holds the connection. The word
	// is non-zero exactly while the connection is queued or held, which
	// is what lets schedule decide with one compare-and-swap whether it
	// is the one that must queue it.
	pendServing
)

// schedule marks bits pending and queues the connection if it was idle.
//
//yancvet:hotalloc
func (sc *SwitchConn) schedule(bits uint32) {
	for {
		old := sc.pend.Load()
		if old&bits == bits {
			return
		}
		if sc.pend.CompareAndSwap(old, old|bits) {
			if old == 0 {
				sc.mux.submit(sc)
			}
			return
		}
	}
}

// serve is one turn of a connection on a worker: take what is pending,
// do it in the fixed order, and either go idle or — when more was marked
// meanwhile — go to the back of the run queue, so a busy switch cannot
// keep a worker from the others.
func (sc *SwitchConn) serve() {
	bits := sc.pend.Swap(pendServing)
	if bits&pendPorts != 0 {
		sc.reconcilePorts()
	}
	if bits&pendFlows != 0 {
		sc.reconcileFlows()
	}
	if bits&pendPktin != 0 {
		sc.drainPktin()
	}
	if bits&pendEcho != 0 {
		sc.echoProbe(sc.mux.echoMisses)
	}
	for {
		old := sc.pend.Load()
		if sc.pend.CompareAndSwap(old, old&^pendServing) {
			if old != pendServing {
				sc.mux.submit(sc)
			}
			return
		}
	}
}

// demux turns shared-watch events into marks on the owning connection.
// Events for switches with no live connection are dropped: a later
// attach reconciles the whole table from the file system, which is also
// how events raced against registration are covered.
func (m *mux) demux() {
	defer m.wg.Done()
	root := strings.TrimSuffix(vfs.Join(m.d.Region, yancfs.DirSwitches), "/") + "/"
	for ev := range m.watch.C {
		m.route(root, &ev)
	}
}

// classify recognises the one write under switches/ besides its flow
// table (yancfs.ClassifyFlowEvent) that the driver acts on, an
// administrator's ports/<n>/config.port_down, and names its switch and
// port. It allocates nothing.
//
//yancvet:hotalloc
func classify(root string, ev *vfs.Event) (sw string, port uint32, ok bool) {
	const (
		ports    = "ports/"
		portDown = "/" + filePortDown
	)
	if ev.Op != vfs.OpWrite {
		return "", 0, false
	}
	sw, rest, ok := yancfs.UnderSwitch(root, ev.Path)
	if !ok || !strings.HasPrefix(rest, ports) || !strings.HasSuffix(rest, portDown) {
		return "", 0, false
	}
	if port, ok = portNumber(rest[len(ports) : len(rest)-len(portDown)]); !ok {
		return "", 0, false
	}
	return sw, port, true
}

// filePortDown is the port file an administrator writes to take a port
// down (§3.1).
const filePortDown = "config.port_down"

// portNumber parses the <n> of a ports/<n> path element.
//
//yancvet:hotalloc
func portNumber(digits string) (uint32, bool) {
	if digits == "" || len(digits) > 10 {
		return 0, false
	}
	var no uint64
	for i := 0; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			return 0, false
		}
		no = no*10 + uint64(d)
	}
	return uint32(no), no <= math.MaxUint32
}

// route classifies one event and marks the connection it concerns.
//
//yancvet:hotalloc
func (m *mux) route(root string, ev *vfs.Event) {
	if ev.Op == vfs.OpOverflow {
		// Events were lost, so no set of marks can be trusted to be
		// complete: every connection reconciles its whole table. The
		// sentinel is queued behind the last event that fit, so it
		// trails every commit it stands for, and the pass it triggers
		// reads state at least as new as those commits.
		for _, sc := range m.d.snapshotConns() {
			sc.flows.MarkAll()
			sc.schedule(pendFlows)
		}
		return
	}
	if marks := yancfs.ClassifyFlowEvent(root, ev); marks[0].Kind != yancfs.NoFlowEvent {
		for _, mk := range marks {
			if mk.Kind == yancfs.NoFlowEvent {
				break
			}
			if sc := m.d.Lookup(mk.Switch); sc != nil {
				sc.flows.Apply(mk.Kind, mk.Path, ev)
				sc.schedule(pendFlows)
			}
		}
		return
	}
	if sw, port, ok := classify(root, ev); ok {
		if sc := m.d.Lookup(sw); sc != nil {
			sc.markPort(port)
		}
	}
}

// echoLoop is the single liveness scheduler: one ticker sets the echo
// bit on every connection.
func (m *mux) echoLoop(interval time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(interval) //yancvet:wallclock echo pacing is real I/O cadence; tests tune EchoInterval instead
	defer t.Stop()
	for {
		select {
		case <-m.quitCh:
			return
		case <-t.C:
		}
		for _, sc := range m.d.snapshotConns() {
			sc.schedule(pendEcho)
		}
	}
}
