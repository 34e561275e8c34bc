package libyanc

import (
	"errors"
	"sync"
	"time"

	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// The flow-mod submission/completion ring is libyanc's write path for
// flows: the same move io_uring made against syscall-per-op I/O,
// applied to the E12 cost model (one counted VFS call per flow field,
// tens of thousands for a 1k-switch push). Callers submit flow-mod
// entries — put/modify/delete, any switch — into a bounded submission
// queue; a single drainer goroutine commits them in adaptive batches,
// each drain being ONE vfs.WithTx (one tree-lock acquisition, many
// version commits) and ONE watch-dispatch flush. A completion queue
// reports per-entry (version, err), and — when the driver's
// FlowInstalledHook is wired to InstallHook — a second, Installed=true
// completion per flow once the flow-mod actually reached the switch, so
// callers get end-to-end pipelining instead of fire-and-forget.

// Errors returned by ring submission.
var (
	// ErrRingFull is returned by TrySubmit when the submission queue is
	// at capacity (Submit blocks instead).
	ErrRingFull = errors.New("libyanc: submission ring full")
	// ErrRingClosed is returned once Close has been called.
	ErrRingClosed = errors.New("libyanc: ring closed")
)

// OpKind discriminates submission entries. A put of an existing flow
// path is a modify: the flow's fields are rewritten and its version
// bumped, exactly like the file-I/O path.
type OpKind uint8

const (
	// OpPut creates or rewrites a complete flow (PutFlowTx semantics).
	OpPut OpKind = iota
	// OpDelete removes the flow directory (DeleteFlow semantics).
	OpDelete
)

// SQE is one submission-queue entry.
type SQE struct {
	Op   OpKind
	Path string // flow directory path, e.g. /switches/sw7/flows/f1
	Spec yancfs.FlowSpec
	Tag  uint64 // opaque caller correlation value, echoed in the CQE
}

// CQE is one completion-queue entry. Every submitted SQE produces
// exactly one commit completion (Installed=false) once its batch's
// transaction has flushed; flows additionally produce an Installed=true
// completion when the driver reports the flow-mod on the wire (only if
// InstallHook is wired to the driver). Install completions carry no Tag:
// they are keyed by Path and Version.
type CQE struct {
	Tag       uint64
	Path      string
	Op        OpKind
	Version   uint64 // committed version (puts), 0 for deletes
	Err       error  // per-entry failure; the rest of the batch still lands
	Installed bool
}

// RingConfig tunes a FlowRing.
type RingConfig struct {
	// SQDepth bounds the submission queue (default 256). A full SQ
	// blocks Submit and fails TrySubmit — backpressure, not drops.
	SQDepth int
	// MaxBatch caps how many entries one drain commits under a single
	// transaction (default SQDepth). The drainer adapts below the cap:
	// it takes whatever backlog is present, so latency stays low when
	// the ring is lightly loaded and batches grow under pressure.
	MaxBatch int
	// Clock overrides the drain-latency time source (telemetry only).
	Clock func() time.Time
}

// FlowRing is the submission/completion ring pair. Create with
// NewFlowRing; all methods are safe for concurrent use. Entries complete
// in submission order (the SQ is FIFO and batches are committed and
// completed in order), so a put followed by a delete of the same path
// lands as put-then-delete.
type FlowRing struct {
	client *Client
	clock  func() time.Time

	mu       sync.Mutex
	notFull  *sync.Cond // submitters waiting for SQ space
	notEmpty *sync.Cond // drainer waiting for work
	cqReady  *sync.Cond // reapers and Flush waiting for progress

	sq         []SQE
	head, tail uint64 // SQ positions; len = tail-head, slot = pos%depth
	cq         []CQE
	inflight   int // entries claimed by the drainer, not yet completed
	closed     bool
	done       bool // drainer exited; no more commit completions
	firstErr   error

	// telemetry (guarded by mu)
	submitted  uint64
	completed  uint64
	installed  uint64
	drains     uint64
	stalls     uint64 // Submit blocked or TrySubmit failed on a full SQ
	batchMax   int
	drainNanos uint64
}

// NewFlowRing creates the ring and starts its drainer goroutine. Close
// it when done: Close drains remaining submissions, then stops the
// drainer.
func (c *Client) NewFlowRing(cfg RingConfig) *FlowRing {
	if cfg.SQDepth <= 0 {
		cfg.SQDepth = 256
	}
	if cfg.MaxBatch <= 0 || cfg.MaxBatch > cfg.SQDepth {
		cfg.MaxBatch = cfg.SQDepth
	}
	r := &FlowRing{
		client: c,
		clock:  cfg.Clock,
		sq:     make([]SQE, cfg.SQDepth),
	}
	if r.clock == nil {
		r.clock = time.Now
	}
	r.notFull = sync.NewCond(&r.mu)
	r.notEmpty = sync.NewCond(&r.mu)
	r.cqReady = sync.NewCond(&r.mu)
	go r.drainer(cfg.MaxBatch)
	return r
}

// Submit appends one entry to the submission queue, blocking while the
// ring is full (backpressure). It returns ErrRingClosed after Close.
func (r *FlowRing) Submit(e SQE) error {
	r.mu.Lock()
	for r.tail-r.head == uint64(len(r.sq)) && !r.closed {
		r.stalls++
		r.notFull.Wait()
	}
	return r.submitLocked(e)
}

// TrySubmit is the non-blocking Submit: it returns ErrRingFull instead
// of waiting for space.
func (r *FlowRing) TrySubmit(e SQE) error {
	r.mu.Lock()
	if r.tail-r.head == uint64(len(r.sq)) && !r.closed {
		r.stalls++
		r.mu.Unlock()
		return ErrRingFull
	}
	return r.submitLocked(e)
}

// submitLocked finishes a submission; the caller holds mu, which is
// released here.
func (r *FlowRing) submitLocked(e SQE) error {
	if r.closed {
		r.mu.Unlock()
		return ErrRingClosed
	}
	r.sq[r.tail%uint64(len(r.sq))] = e
	r.tail++
	r.submitted++
	r.mu.Unlock()
	r.notEmpty.Signal()
	return nil
}

// Reap pops the oldest completion. With block=true it waits for one; it
// returns ok=false when none is pending (block=false), or when the ring
// is closed, fully drained, and the CQ is empty. Install completions
// that arrive from the driver after that point are dropped.
func (r *FlowRing) Reap(block bool) (CQE, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.cq) == 0 {
		if !block || r.done {
			return CQE{}, false
		}
		r.cqReady.Wait()
	}
	e := r.cq[0]
	r.cq = r.cq[1:]
	return e, true
}

// Flush blocks until every entry submitted before the call has its
// commit completion posted (installed completions are asynchronous
// driver feedback and are not waited for), then returns the first
// error any entry has hit since the ring was created, nil if none.
// Completions stay reapable after Flush returns.
func (r *FlowRing) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for (r.tail != r.head || r.inflight > 0) && !r.done {
		r.cqReady.Wait()
	}
	return r.firstErr
}

// Close stops accepting submissions, waits for the drainer to commit
// everything already submitted, and returns the first error seen (like
// Flush). Pending completions remain reapable; blocked Reap calls wake
// with ok=false once the CQ is empty.
func (r *FlowRing) Close() error {
	r.mu.Lock()
	if r.closed {
		for !r.done {
			r.cqReady.Wait()
		}
		err := r.firstErr
		r.mu.Unlock()
		return err
	}
	r.closed = true
	r.mu.Unlock()
	// Wake everyone: submitters fail with ErrRingClosed, the drainer
	// sees closed and exits after emptying the SQ.
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
	r.mu.Lock()
	for !r.done {
		r.cqReady.Wait()
	}
	err := r.firstErr
	r.mu.Unlock()
	return err
}

// InstallHook returns a function with the driver's FlowInstalledHook
// signature; wiring it makes the ring post an Installed=true completion
// when a committed flow actually reaches its switch, closing the
// submit → commit → install pipeline. The hook runs on driver mux
// workers, so it only appends to the CQ.
func (r *FlowRing) InstallHook() func(flowPath string, version uint64) {
	return func(flowPath string, version uint64) {
		r.mu.Lock()
		if r.done && len(r.cq) == 0 {
			// Late driver feedback after Close+drain; nobody is reaping.
			r.mu.Unlock()
			return
		}
		r.installed++
		r.cq = append(r.cq, CQE{Path: flowPath, Op: OpPut, Version: version, Installed: true})
		r.mu.Unlock()
		r.cqReady.Broadcast()
	}
}

// drainer is the single consumer of the SQ. Each iteration claims the
// whole backlog (capped at maxBatch), commits it under one transaction,
// and posts one completion per entry. Per-entry failures are recorded in
// their CQEs and do not abort the rest of the batch — there is no
// rollback in vfs, so a failed entry may leave a partially-written,
// uncommitted flow directory (no version file, so drivers ignore it).
//
//yancvet:hotalloc
func (r *FlowRing) drainer(maxBatch int) {
	batch := make([]SQE, 0, maxBatch) //yancvet:alloc one claim buffer per ring lifetime, reused every drain
	for {
		r.mu.Lock()
		for r.tail == r.head && !r.closed {
			r.notEmpty.Wait()
		}
		if r.tail == r.head && r.closed {
			r.done = true
			r.mu.Unlock()
			r.cqReady.Broadcast()
			return
		}
		n := int(r.tail - r.head)
		if n > maxBatch {
			n = maxBatch
		}
		batch = batch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, r.sq[r.head%uint64(len(r.sq))])
			r.sq[r.head%uint64(len(r.sq))] = SQE{} // drop references
			r.head++
		}
		r.inflight += n
		r.mu.Unlock()
		r.notFull.Broadcast()

		start := r.clock()
		cqes := r.commit(batch)
		elapsed := r.clock().Sub(start)

		r.mu.Lock()
		r.drains++
		r.drainNanos += uint64(elapsed)
		if n > r.batchMax {
			r.batchMax = n
		}
		r.inflight -= n
		r.completed += uint64(len(cqes))
		r.cq = append(r.cq, cqes...)
		if r.firstErr == nil {
			for _, e := range cqes {
				if e.Err != nil {
					r.firstErr = e.Err
					break
				}
			}
		}
		r.mu.Unlock()
		r.cqReady.Broadcast()
	}
}

// commit applies one batch under a single transaction: one tree-lock
// acquisition, one event flush, many version files.
func (r *FlowRing) commit(batch []SQE) []CQE {
	cqes := make([]CQE, len(batch)) //yancvet:alloc one completion buffer per drain, handed off to the CQ
	y := r.client.y
	//yancvet:alloc one transaction and closure per drain, amortized over the whole batch
	err := y.VFS().WithTx(func(tx *vfs.Tx) error {
		for i, e := range batch {
			cqes[i] = CQE{Tag: e.Tag, Path: e.Path, Op: e.Op}
			switch e.Op {
			case OpDelete:
				cqes[i].Err = tx.Remove(e.Path) //yancvet:alloc tree mutation allocates by design; the render path is what is pinned
			default:
				//yancvet:alloc flow write allocates inodes by design; its render path is pinned zero-alloc
				v, perr := yancfs.PutFlowTx(tx, e.Path, e.Spec)
				cqes[i].Version = v
				cqes[i].Err = perr
			}
		}
		return nil
	})
	if err != nil {
		// Transaction-level failure (cannot happen today: the fn above
		// returns nil); surface it on every entry that had none.
		for i := range cqes {
			if cqes[i].Err == nil {
				cqes[i].Err = err
			}
		}
	}
	return cqes
}

// RingStats is a telemetry snapshot, published as /.proc/libyanc files.
type RingStats struct {
	Submitted  uint64 // SQEs accepted
	Completed  uint64 // commit completions posted
	Installed  uint64 // install completions posted by the driver hook
	Drains     uint64 // transactions committed
	Stalls     uint64 // submissions that hit a full SQ
	BatchMax   int    // largest single-drain batch
	DrainNanos uint64 // cumulative wall time inside commit transactions
	SQLen      int    // entries currently queued
	SQCap      int
	CQLen      int // completions awaiting reap
	InFlight   int // entries claimed by the drainer, not yet completed
	Closed     bool
}

// Stats snapshots the ring counters.
func (r *FlowRing) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RingStats{
		Submitted:  r.submitted,
		Completed:  r.completed,
		Installed:  r.installed,
		Drains:     r.drains,
		Stalls:     r.stalls,
		BatchMax:   r.batchMax,
		DrainNanos: r.drainNanos,
		SQLen:      int(r.tail - r.head),
		SQCap:      len(r.sq),
		CQLen:      len(r.cq),
		InFlight:   r.inflight,
		Closed:     r.closed,
	}
}
