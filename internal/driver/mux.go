package driver

import (
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
//   - a small worker pool executing per-switch tasks,
//   - one recursive watch on <region>/switches demultiplexed to the
//     owning connection by path, and
//   - one echo scheduler ticking for every connection.
//
// Each SwitchConn serializes its own work through a mailbox — an
// unbounded FIFO of closures of which at most one is in a worker at a
// time — so per-switch handling keeps the ordering dedicated goroutines
// would provide while the goroutine count stays O(workers) + one parked
// reader per switch.
type mux struct {
	d     *Driver
	watch *vfs.Watch

	qmu   sync.Mutex
	cond  *sync.Cond
	queue []func()
	quit  bool

	quitCh chan struct{}
	// wg counts the mux's own goroutines and every connection's reader
	// (added under Driver.mu at registration, so no Add races stop's Wait).
	wg sync.WaitGroup
}

// muxWatchBuffer sizes the shared switches/ watch. Overflow is survivable
// (every connection resyncs) but at city scale a resync storm is exactly
// what we are trying to avoid, so the buffer is generous.
const muxWatchBuffer = 1 << 16

func newMux(d *Driver) (*mux, error) {
	w, err := d.Y.Root().AddWatch(vfs.Join(d.Region, yancfs.DirSwitches),
		vfs.OpWrite|vfs.OpRemove|vfs.OpRename, vfs.Recursive(), vfs.BufferSize(muxWatchBuffer))
	if err != nil {
		return nil, err
	}
	m := &mux{d: d, watch: w, quitCh: make(chan struct{})}
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
		misses := d.EchoMisses
		if misses <= 0 {
			misses = DefaultEchoMisses
		}
		m.wg.Add(1)
		go m.echoLoop(d.EchoInterval, misses)
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

// submit queues one task for the worker pool.
//
//yancvet:hotalloc
func (m *mux) submit(f func()) {
	m.qmu.Lock()
	if m.quit {
		m.qmu.Unlock()
		return
	}
	m.queue = append(m.queue, f)
	m.qmu.Unlock()
	m.cond.Signal()
}

// worker drains the task queue until the mux stops.
//
//yancvet:hotalloc
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
		f := m.queue[0]
		m.queue[0] = nil
		m.queue = m.queue[1:]
		m.qmu.Unlock()
		f()
	}
}

// demux routes shared-watch events to the owning connection's mailbox.
// Events for switches with no live connection are dropped: a later
// attach resyncs from the file system, which is also how events raced
// against registration are covered.
func (m *mux) demux() {
	defer m.wg.Done()
	root := vfs.Join(m.d.Region, yancfs.DirSwitches)
	for ev := range m.watch.C {
		if ev.Op == vfs.OpOverflow {
			// Lost events: every connection resyncs.
			for _, sc := range m.d.snapshotConns() {
				sc.enqueue(sc.syncAllFlows)
			}
			continue
		}
		name := switchNameFromPath(root, ev.Path)
		if name == "" {
			continue
		}
		sc := m.d.Lookup(name)
		if sc == nil {
			continue
		}
		ev := ev
		sc.enqueue(func() { sc.handleWatchEvent(ev) })
	}
}

// echoLoop is the single liveness scheduler: one ticker fans a probe
// task out to every connection's mailbox.
func (m *mux) echoLoop(interval time.Duration, misses int) {
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
			sc := sc
			sc.enqueue(func() { sc.echoProbe(misses) })
		}
	}
}

// switchNameFromPath extracts the switch name from a path under the
// shared watch root (<root>/<switch>[/...]).
func switchNameFromPath(root, p string) string {
	if !strings.HasPrefix(p, root) {
		return ""
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(p, root), "/")
	if rel == "" {
		return ""
	}
	if i := strings.IndexByte(rel, '/'); i >= 0 {
		return rel[:i]
	}
	return rel
}

// enqueue appends a task to the connection's mailbox, scheduling a
// drain on the worker pool if one is not already running. The mailbox
// serializes a connection's work — watch events, echo probes, packet-in
// deliveries — without pinning a goroutine per task source.
// The drain task submitted is the method value bound once at attach
// (drainBoxFn), not sc.drainBox, which would allocate a closure per
// wakeup.
//
//yancvet:hotalloc
func (sc *SwitchConn) enqueue(f func()) {
	sc.boxMu.Lock()
	sc.box = append(sc.box, f)
	start := !sc.boxActive
	if start {
		sc.boxActive = true
	}
	sc.boxMu.Unlock()
	if start {
		sc.mux.submit(sc.drainBoxFn)
	}
}

// drainBox runs mailbox tasks in FIFO order until the mailbox is empty.
//
//yancvet:hotalloc
func (sc *SwitchConn) drainBox() {
	for {
		sc.boxMu.Lock()
		if len(sc.box) == 0 {
			sc.boxActive = false
			sc.boxMu.Unlock()
			return
		}
		f := sc.box[0]
		sc.box[0] = nil
		sc.box = sc.box[1:]
		sc.boxMu.Unlock()
		f()
	}
}
