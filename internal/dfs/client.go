package dfs

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yanc/internal/backoff"
	"yanc/internal/vfs"
)

// ErrClosed reports use of a closed mount.
var ErrClosed = errors.New("dfs: mount closed")

// ErrDisconnected reports an operation attempted (or orphaned) while the
// mount's connection to the server is down. With Options.Reconnect the
// condition is transient: the mount keeps redialing in the background.
var ErrDisconnected = errors.New("dfs: connection lost")

// ErrTimeout reports a strict RPC that exceeded Options.CallTimeout; the
// connection is torn down, since a server that stopped answering is
// indistinguishable from a dead one.
var ErrTimeout = errors.New("dfs: call timed out")

// ErrQueueFull reports that the bounded eventual-consistency write queue
// is at capacity (typically during a long disconnection).
var ErrQueueFull = errors.New("dfs: eventual write queue full")

// ErrNotLeader reports a mutating op sent to a replica that is not the
// current leader. A failover mount (MountReplicas) absorbs it by
// re-homing to the leader and replaying; it surfaces to callers only
// when no leader could be reached within the failover budget.
var ErrNotLeader = errors.New("dfs: not the leader")

// Resilience defaults (overridable per mount through Options).
const (
	DefaultCallTimeout        = 10 * time.Second
	DefaultMaxQueue           = 4096
	DefaultRetryMin           = 50 * time.Millisecond
	DefaultRetryMax           = 5 * time.Second
	DefaultFailoverMaxElapsed = 30 * time.Second
)

// Options tunes a mount's failure behaviour.
type Options struct {
	// CallTimeout bounds every synchronous RPC (and the reconnect dial).
	// 0 means DefaultCallTimeout; negative disables the deadline.
	CallTimeout time.Duration
	// Reconnect makes the mount survive connection loss: it redials with
	// capped exponential backoff, replays the hello and the per-subtree
	// consistency overrides, re-registers watches (delivering a synthetic
	// Overflow event so subscribers know to rescan), and flushes writes
	// queued during the outage.
	Reconnect bool
	// RetryMin/RetryMax bound the reconnect and flush-retry backoff
	// (defaults DefaultRetryMin/DefaultRetryMax).
	RetryMin time.Duration
	RetryMax time.Duration
	// MaxQueue bounds the eventual-consistency write queue; writes beyond
	// it fail with ErrQueueFull. 0 means DefaultMaxQueue.
	MaxQueue int
	// FailoverMaxElapsed caps the total jittered time a failover mount
	// (MountReplicas) spends retrying one strict operation across leader
	// redirects and remounts before surfacing the error. 0 means
	// DefaultFailoverMaxElapsed; negative disables the cap.
	FailoverMaxElapsed time.Duration
}

func (o Options) withDefaults() Options {
	if o.CallTimeout == 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	if o.RetryMin <= 0 {
		o.RetryMin = DefaultRetryMin
	}
	if o.RetryMax <= 0 {
		o.RetryMax = DefaultRetryMax
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = DefaultMaxQueue
	}
	if o.FailoverMaxElapsed == 0 {
		o.FailoverMaxElapsed = DefaultFailoverMaxElapsed
	}
	return o
}

func (o Options) retryPolicy() backoff.Policy {
	return backoff.Policy{Min: o.RetryMin, Max: o.RetryMax}
}

// failoverPolicy is retryPolicy bounded by the failover budget.
func (o Options) failoverPolicy() backoff.Policy {
	p := o.retryPolicy()
	if o.FailoverMaxElapsed > 0 {
		p.MaxElapsed = o.FailoverMaxElapsed
	}
	return p
}

// Connection lifecycle states.
const (
	stateUp int32 = iota
	stateDown
	stateClosed
)

// Client is a remote mount of an exported file system. Its method set
// mirrors vfs.Proc, so code written against the local file system works
// against the mount — the property §6 relies on to distribute yanc
// applications across machines.
type Client struct {
	addr        string   // current address (under mu once mounted)
	addrs       []string // every known replica address; len 1 for plain mounts
	addrIdx     int      // index of addr in addrs (under mu)
	preferred   string   // leader redirect hint for the next remount (under mu)
	failover    bool     // MountReplicas: re-home and replay on ErrNotLeader
	cred        vfs.Cred
	consistency Consistency
	opts        Options

	// Exactly-once identity: every mutating request is stamped with
	// (clientID, next seq) so a replica group can deduplicate replays.
	clientID uint64
	seq      atomic.Uint64

	// state is read lock-free on hot paths; transitions happen under mu.
	state atomic.Int32

	mu      sync.Mutex
	conn    net.Conn
	enc     *gob.Encoder
	gen     uint64 // bumped on every (re)connect; stale I/O detects itself
	connErr error  // why state is down
	nextID  uint64
	pending map[uint64]chan *response
	watches map[uint64]*RemoteWatch

	// sendMu serializes encoder writes so a blocked send never holds mu
	// (the failAll/call deadlock of the unbounded design).
	sendMu sync.Mutex

	// Eventual-consistency write pipeline.
	queueMu   sync.Mutex
	queue     []request
	queueCond *sync.Cond
	flushing  bool
	resuming  bool // remount is replaying overrides and watches
	flushErr  error
	stopFlush chan struct{}
	flushDone chan struct{}

	// Per-subtree consistency overrides (path prefix -> mode).
	overrideMu sync.RWMutex
	overrides  map[string]Consistency

	counters clientCounters
}

// Mount connects to a server with the given credential and default
// consistency mode, using default resilience options (bounded RPCs, no
// automatic reconnect).
func Mount(addr string, cred vfs.Cred, consistency Consistency) (*Client, error) {
	return MountOptions(addr, cred, consistency, Options{})
}

// MountOptions is Mount with explicit resilience options.
func MountOptions(addr string, cred vfs.Cred, consistency Consistency, opts Options) (*Client, error) {
	return mountAddrs([]string{addr}, cred, consistency, opts, false)
}

// MountReplicas mounts a replicated export given every replica's
// address. The mount homes on whichever replica answers first and
// follows the leader from there: a write rejected with ErrNotLeader (or
// lost to a dead leader) tears the connection down, the remount
// machinery redials — preferring the rejecting replica's leader hint —
// and the session (hello, consistency overrides, watches, queued
// writes) replays on the new home. In-flight mutations are replayed
// under their original (ClientID, Seq) identity, which every replica's
// apply path deduplicates: a mid-failover flow push lands exactly once.
// Reconnect is implied.
func MountReplicas(addrs []string, cred vfs.Cred, consistency Consistency, opts Options) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("dfs: MountReplicas: no addresses")
	}
	opts.Reconnect = true
	return mountAddrs(append([]string(nil), addrs...), cred, consistency, opts, true)
}

func mountAddrs(addrs []string, cred vfs.Cred, consistency Consistency, opts Options, failover bool) (*Client, error) {
	opts = opts.withDefaults()
	var (
		conn net.Conn
		addr string
		idx  int
		err  error
	)
	for i, a := range addrs {
		if conn, err = net.DialTimeout("tcp", a, dialTimeout(opts)); err == nil {
			addr, idx = a, i
			break
		}
	}
	if conn == nil {
		return nil, fmt.Errorf("dfs: mount %s: %w", strings.Join(addrs, ","), err)
	}
	c := &Client{
		addr:        addr,
		addrs:       addrs,
		addrIdx:     idx,
		failover:    failover,
		cred:        cred,
		consistency: consistency,
		opts:        opts,
		clientID:    newClientID(),
		conn:        conn,
		enc:         gob.NewEncoder(conn),
		pending:     make(map[uint64]chan *response),
		watches:     make(map[uint64]*RemoteWatch),
		overrides:   make(map[string]Consistency),
		stopFlush:   make(chan struct{}),
		flushDone:   make(chan struct{}),
	}
	c.queueCond = sync.NewCond(&c.queueMu)
	if err := c.enc.Encode(hello{UID: cred.UID, GID: cred.GID, Groups: cred.Groups, Consistency: consistency}); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop(0, conn)
	go c.flushLoop()
	return c, nil
}

// newClientID draws a mount's exactly-once identity. A collision would
// merge two clients' dedup windows on the replicas, so this is 64 bits
// from the OS entropy pool rather than a process-local counter.
func newClientID() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		panic("dfs: no entropy for client ID: " + err.Error())
	}
	return binary.LittleEndian.Uint64(b[:])
}

func dialTimeout(opts Options) time.Duration {
	if opts.CallTimeout > 0 {
		return opts.CallTimeout
	}
	return DefaultCallTimeout
}

// Close flushes pending writes and tears the mount down. When the
// connection is already gone, queued eventual writes are dropped (with
// Reconnect they would otherwise hold Close hostage to the server's
// return).
func (c *Client) Close() error {
	if c.state.Load() == stateUp {
		_ = c.Flush() //yancvet:allow errdrop best-effort flush; Close must not be held hostage by a dead server
	}
	c.mu.Lock()
	if c.state.Load() == stateClosed {
		c.mu.Unlock()
		return nil
	}
	c.state.Store(stateClosed)
	conn := c.conn
	pending := c.pending
	c.pending = make(map[uint64]chan *response)
	watches := c.watches
	c.watches = make(map[uint64]*RemoteWatch)
	c.mu.Unlock()
	close(c.stopFlush)
	c.queueCond.Broadcast()
	<-c.flushDone
	var err error
	if conn != nil {
		err = conn.Close()
	}
	for _, ch := range pending {
		ch <- &response{Err: "mount closed", ErrKind: errConn}
	}
	for _, w := range watches {
		w.close()
	}
	if errors.Is(err, net.ErrClosed) {
		err = nil // the connection was already torn down by a fault
	}
	return err
}

// readLoop decodes responses and watch events for one connection
// generation. Any decode error reports the connection lost.
func (c *Client) readLoop(gen uint64, conn net.Conn) {
	dec := gob.NewDecoder(conn)
	for {
		var rsp response
		if err := dec.Decode(&rsp); err != nil {
			c.connLost(gen, err)
			return
		}
		if rsp.Event != nil {
			c.mu.Lock()
			w := c.watches[rsp.ID]
			c.mu.Unlock()
			if w != nil {
				w.deliver(*rsp.Event)
			}
			continue
		}
		c.mu.Lock()
		ch := c.pending[rsp.ID]
		delete(c.pending, rsp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- &rsp
		}
	}
}

// connLost transitions generation gen from up to down: every pending
// call fails immediately with the connection error (no caller is ever
// left hanging), and — with Reconnect — a background remount loop
// starts. Without Reconnect the failure is permanent: watches close and
// later calls keep failing fast with the same error.
func (c *Client) connLost(gen uint64, err error) {
	c.mu.Lock()
	if c.gen != gen || c.state.Load() != stateUp {
		c.mu.Unlock()
		return // a different generation already owns the connection
	}
	c.state.Store(stateDown)
	c.connErr = err
	conn := c.conn
	pending := c.pending
	c.pending = make(map[uint64]chan *response)
	var dead []*RemoteWatch
	if !c.opts.Reconnect {
		for _, w := range c.watches {
			dead = append(dead, w)
		}
		c.watches = make(map[uint64]*RemoteWatch)
	}
	c.mu.Unlock()
	conn.Close()
	for _, ch := range pending {
		ch <- &response{Err: err.Error(), ErrKind: errConn}
	}
	for _, w := range dead {
		w.close()
	}
	c.queueMu.Lock() // a strict call parked in mcall must not miss the state change
	c.queueCond.Broadcast()
	c.queueMu.Unlock()
	if c.opts.Reconnect {
		go c.reconnectLoop(gen)
	}
}

// reconnectLoop redials with capped exponential backoff until the mount
// is re-established or closed. Each attempt may land on a different
// replica (see nextAddr), which is the whole failover mechanism.
func (c *Client) reconnectLoop(gen uint64) {
	bo := backoff.New(c.opts.retryPolicy())
	for {
		select {
		case <-c.stopFlush:
			return
		case <-backoff.Wait(bo.Next()):
		}
		if c.state.Load() == stateClosed {
			return
		}
		if c.remount(gen) {
			return
		}
	}
}

// nextAddr picks the address for the next reconnect attempt: a pending
// leader redirect hint wins, else round-robin over the replica set (a
// single-address mount just keeps redialing its server).
func (c *Client) nextAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.preferred != "" {
		a := c.preferred
		c.preferred = ""
		for i, known := range c.addrs {
			if known == a {
				c.addrIdx = i
			}
		}
		return a
	}
	c.addrIdx = (c.addrIdx + 1) % len(c.addrs)
	return c.addrs[c.addrIdx]
}

// redirect re-homes a failover mount after a leader rejection: remember
// the hint (when the rejecting replica knew the leader) and tear the
// connection down, so the same remount path a crash takes replays the
// session — overrides, watches, queued writes — on the leader.
func (c *Client) redirect(hint string) {
	if !c.failover {
		return
	}
	c.mu.Lock()
	if hint != "" {
		c.preferred = hint
	}
	gen := c.gen
	c.mu.Unlock()
	c.connLost(gen, ErrNotLeader)
}

// remount performs one reconnect attempt: dial, replay the hello, swap
// the connection in under a new generation, then restore session state —
// consistency overrides and watches — and wake the flusher so writes
// queued during the outage drain. It reports whether the loop is done
// (success, or the mount closed underneath it).
func (c *Client) remount(gen uint64) bool {
	addr := c.nextAddr()
	conn, err := net.DialTimeout("tcp", addr, dialTimeout(c.opts))
	if err != nil {
		return false
	}
	enc := gob.NewEncoder(conn)
	//yancvet:wallclock transport write deadline must be real time
	conn.SetWriteDeadline(time.Now().Add(dialTimeout(c.opts)))
	err = c.withSend(func() error {
		return enc.Encode(hello{UID: c.cred.UID, GID: c.cred.GID, Groups: c.cred.Groups, Consistency: c.consistency})
	})
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return false
	}

	c.mu.Lock()
	if c.state.Load() == stateClosed || c.gen != gen {
		c.mu.Unlock()
		conn.Close()
		return true
	}
	if addr != c.addr {
		c.counters.failovers.Add(1)
	}
	c.addr = addr
	c.conn, c.enc = conn, enc
	c.gen++
	newGen := c.gen
	c.connErr = nil
	c.queueMu.Lock()
	c.resuming = true // queued writes flush after the session below is restored
	c.queueMu.Unlock()
	c.state.Store(stateUp)
	c.counters.reconnects.Add(1)
	watches := make(map[uint64]*RemoteWatch, len(c.watches))
	for id, w := range c.watches {
		watches[id] = w
	}
	c.mu.Unlock()

	go c.readLoop(newGen, conn)

	// Replay per-subtree consistency overrides so the server again knows
	// which subtrees demand strict routing.
	c.overrideMu.RLock()
	overrides := make(map[string]Consistency, len(c.overrides))
	for p, m := range c.overrides {
		overrides[p] = m
	}
	c.overrideMu.RUnlock()
	for path, mode := range overrides {
		//yancvet:allow errdrop best-effort reapply on reconnect; a failure falls back to server defaults
		_, _ = c.mcallNow(request{Op: opSetXattr, Path: path, Path2: ConsistencyXattr, Data: []byte(mode.String())})
	}

	// Re-register watches under their original IDs. Events emitted while
	// the mount was down are gone forever, so each watch gets a synthetic
	// Overflow — the same signal the kernel-side buffer uses — telling the
	// subscriber to rescan rather than trust its incremental view.
	for id, w := range watches {
		if c.reRegisterWatch(id, w) == nil {
			w.deliver(vfs.Event{Op: vfs.OpOverflow, Path: w.path})
		}
	}
	c.queueMu.Lock()
	c.resuming = false
	c.queueCond.Broadcast()
	c.queueMu.Unlock()
	return true
}

// reRegisterWatch replays one watch subscription on the fresh
// connection. Failures are left for the next reconnect round.
func (c *Client) reRegisterWatch(id uint64, w *RemoteWatch) error {
	ch := make(chan *response, 1)
	c.mu.Lock()
	if c.state.Load() != stateUp {
		c.mu.Unlock()
		return ErrDisconnected
	}
	gen, conn, enc := c.gen, c.conn, c.enc
	c.pending[id] = ch
	c.mu.Unlock()
	req := request{ID: id, Op: opWatch, Path: w.path, Mask: uint32(w.mask), Recursive: w.recursive}
	if err := c.send(conn, enc, &req); err != nil {
		c.unregister(id)
		c.connLost(gen, err)
		return err
	}
	_, err := c.await(id, ch, gen)
	return err
}

// register allocates an ID for req and parks ch to receive its
// response. It fails fast when the mount is closed or down.
func (c *Client) register(req *request, ch chan *response) (gen uint64, conn net.Conn, enc *gob.Encoder, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state.Load() {
	case stateClosed:
		return 0, nil, nil, ErrClosed
	case stateDown:
		return 0, nil, nil, fmt.Errorf("%w: %v", ErrDisconnected, c.connErr)
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	return c.gen, c.conn, c.enc, nil
}

func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// withSend runs fn (an encoder write) under the send lock.
func (c *Client) withSend(fn func() error) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return fn()
}

// send encodes req on conn under the send lock with a write deadline, so
// a jammed transport can never wedge the whole client.
func (c *Client) send(conn net.Conn, enc *gob.Encoder, req *request) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if t := c.opts.CallTimeout; t > 0 {
		//yancvet:wallclock transport write deadline must be real time
		conn.SetWriteDeadline(time.Now().Add(t))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return enc.Encode(req)
}

// await blocks for the response to id, bounded by CallTimeout. A timeout
// tears the connection down: a server that stopped answering must not
// be allowed to wedge every subsequent call.
func (c *Client) await(id uint64, ch chan *response, gen uint64) (*response, error) {
	var timeout <-chan time.Time
	if c.opts.CallTimeout > 0 {
		//yancvet:wallclock RPC deadline is a real-time promise to the caller
		timer := time.NewTimer(c.opts.CallTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case rsp := <-ch:
		if err := wireError(rsp); err != nil {
			return rsp, err
		}
		return rsp, nil
	case <-timeout:
		c.unregister(id)
		err := fmt.Errorf("%w after %v", ErrTimeout, c.opts.CallTimeout)
		c.connLost(gen, err)
		return nil, err
	}
}

// call performs one synchronous round trip.
func (c *Client) call(req request) (*response, error) {
	c.counters.calls.Add(1)
	ch := make(chan *response, 1)
	gen, conn, enc, err := c.register(&req, ch)
	if err != nil {
		c.counters.errors.Add(1)
		return nil, err
	}
	if err := c.send(conn, enc, &req); err != nil {
		c.unregister(req.ID)
		c.connLost(gen, err)
		c.counters.errors.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrDisconnected, err)
	}
	rsp, err := c.await(req.ID, ch, gen)
	if err != nil {
		c.counters.errors.Add(1)
		if errors.Is(err, ErrTimeout) {
			c.counters.timeouts.Add(1)
		}
	}
	return rsp, err
}

// isConnError reports whether err means the transport failed (retryable
// after a remount) rather than the server refusing the operation.
func isConnError(err error) bool {
	return errors.Is(err, ErrDisconnected) || errors.Is(err, ErrTimeout)
}

// stamp assigns a mutating request its exactly-once (ClientID, Seq)
// identity. Idempotent: a replay keeps its original stamp.
func (c *Client) stamp(req *request) {
	if req.Seq == 0 && mutating(req.Op) {
		req.ClientID = c.clientID
		req.Seq = c.seq.Add(1)
	}
}

// mcall performs one strict mutating RPC once the eventual writes this
// mount queued before it have been applied (Flush's condition, leaving
// flushErr for Flush), so a mount's writes land in the order it made
// them; a mount that is down or closed does not wait but fails fast.
func (c *Client) mcall(req request) (*response, error) {
	c.queueMu.Lock()
	for (len(c.queue) > 0 || c.flushing) && !c.stopped() && c.state.Load() == stateUp {
		c.queueCond.Wait()
	}
	c.queueMu.Unlock()
	return c.mcallNow(req)
}

// mcallNow is mcall without the queue barrier; remount replays session
// state with it ahead of the queued writes. On a failover mount the
// request is stamped and retried across leader redirects and remounts:
// at-least-once delivery, which the replicas' dedup windows turn into
// exactly-once apply.
func (c *Client) mcallNow(req request) (*response, error) {
	if !c.failover {
		return c.call(req)
	}
	c.stamp(&req)
	return c.retry(req, true)
}

// rcall performs one read RPC, retried across failover without a
// sequence stamp (reads are idempotent by nature).
func (c *Client) rcall(req request) (*response, error) {
	if !c.failover {
		return c.call(req)
	}
	return c.retry(req, false)
}

// retry drives one RPC to completion across leader changes. The loop
// runs until the call succeeds, fails with a genuine server-side error,
// or exhausts the failover budget (Options.FailoverMaxElapsed).
func (c *Client) retry(req request, isWrite bool) (*response, error) {
	bo := backoff.New(c.opts.failoverPolicy())
	for {
		rsp, err := c.call(req)
		if err == nil {
			return rsp, nil
		}
		switch {
		case errors.Is(err, ErrClosed):
			return rsp, err
		case errors.Is(err, ErrNotLeader):
			var hint string
			if rsp != nil {
				hint = rsp.Leader
			}
			c.redirect(hint)
		case isConnError(err):
			// The remount machinery is already re-homing; wait it out.
		default:
			return rsp, err // the server refused the op; retrying cannot help
		}
		d, ok := bo.NextOK()
		if !ok {
			return rsp, err
		}
		if isWrite {
			c.counters.replayedWrites.Add(1)
		}
		select {
		case <-c.stopFlush:
			return rsp, err
		case <-backoff.Wait(d):
		}
	}
}

// SetConsistency records a subtree override and persists it as the
// subtree's xattr so other mounts can observe the requirement.
func (c *Client) SetConsistency(path string, mode Consistency) error {
	path = vfs.Clean(path)
	if err := c.SetXattr(path, ConsistencyXattr, []byte(mode.String())); err != nil {
		return err
	}
	c.overrideMu.Lock()
	c.overrides[path] = mode
	c.overrideMu.Unlock()
	return nil
}

// modeFor resolves the consistency governing a path: the deepest subtree
// override wins, else the mount default.
func (c *Client) modeFor(path string) Consistency {
	c.overrideMu.RLock()
	defer c.overrideMu.RUnlock()
	if len(c.overrides) == 0 {
		return c.consistency
	}
	path = vfs.Clean(path)
	var prefixes []string
	for p := range c.overrides {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return len(prefixes[i]) > len(prefixes[j]) })
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") || p == "/" {
			return c.overrides[p]
		}
	}
	return c.consistency
}

// write routes a mutating request per the governing consistency mode.
// Eventual writes join a bounded queue; during an outage (with
// Reconnect) they wait there for the remount instead of failing.
func (c *Client) write(path string, req request) error {
	if c.modeFor(path) == Strict {
		_, err := c.mcall(req)
		return err
	}
	if c.state.Load() == stateClosed {
		return ErrClosed
	}
	// Stamp at queue time: if a flush batch is cut off mid-failover and
	// replayed on the new leader, the replicas dedup each sub-write.
	c.stamp(&req)
	c.queueMu.Lock()
	if len(c.queue) >= c.opts.MaxQueue {
		c.queueMu.Unlock()
		c.counters.queueRejects.Add(1)
		return fmt.Errorf("%w (%d writes)", ErrQueueFull, c.opts.MaxQueue)
	}
	c.queue = append(c.queue, req)
	c.queueMu.Unlock()
	c.counters.queued.Add(1)
	c.queueCond.Signal()
	return nil
}

// flushLoop drains the eventual-consistency queue in order, batching
// whatever has accumulated into one round trip. Transport failures
// requeue the batch and retry with backoff (the writes survive a
// remount); server-side errors surface at the next Flush, as before.
func (c *Client) flushLoop() {
	defer close(c.flushDone)
	bo := backoff.New(c.opts.retryPolicy())
	for {
		c.queueMu.Lock()
		for len(c.queue) == 0 || c.resuming {
			select {
			case <-c.stopFlush:
				c.queueMu.Unlock()
				return
			default:
			}
			c.queueCond.Wait()
		}
		batch := c.queue
		c.queue = nil
		c.flushing = true
		c.queueMu.Unlock()

		rsp, err := c.call(request{Op: opBatch, Sub: batch})

		retryable := isConnError(err) || errors.Is(err, ErrNotLeader)
		if err != nil && retryable && c.opts.Reconnect && c.state.Load() != stateClosed {
			if errors.Is(err, ErrNotLeader) {
				var hint string
				if rsp != nil {
					hint = rsp.Leader
				}
				c.redirect(hint)
				c.counters.replayedWrites.Add(uint64(len(batch)))
			}
			c.queueMu.Lock()
			c.queue = append(batch, c.queue...)
			c.flushing = false
			c.queueMu.Unlock()
			select {
			case <-c.stopFlush:
				return
			case <-backoff.Wait(bo.Next()):
			}
			continue
		}
		bo.Reset()
		if err == nil {
			c.counters.flushed.Add(uint64(len(batch)))
		}
		c.queueMu.Lock()
		c.flushing = false
		if err != nil && c.flushErr == nil {
			c.flushErr = err
		}
		c.queueMu.Unlock()
		c.queueCond.Broadcast()
	}
}

// Flush blocks until every queued eventual write has been applied on the
// server, returning the first flush error since the previous Flush. This
// is the barrier an application uses before reading back its own
// eventual-mode writes. With Reconnect, Flush waits out an outage (the
// barrier holds until the writes actually land); without it, a dead
// connection drains the queue as fast-failing batches and the error
// surfaces here.
func (c *Client) Flush() error {
	c.queueMu.Lock()
	defer c.queueMu.Unlock()
	for (len(c.queue) > 0 || c.flushing) && !c.stopped() {
		c.queueCond.Wait()
	}
	err := c.flushErr
	c.flushErr = nil
	return err
}

// stopped reports whether the flush pipeline has shut down (mount
// closed). Called with queueMu held; must not take mu.
func (c *Client) stopped() bool {
	select {
	case <-c.stopFlush:
		return true
	default:
		return false
	}
}

// Mkdir creates a directory on the server.
func (c *Client) Mkdir(path string, mode vfs.FileMode) error {
	return c.write(path, request{Op: opMkdir, Path: path, Mode: uint16(mode)})
}

// MkdirAll creates path and missing parents.
func (c *Client) MkdirAll(path string, mode vfs.FileMode) error {
	return c.write(path, request{Op: opMkdirAll, Path: path, Mode: uint16(mode)})
}

// WriteFile creates or replaces a file.
func (c *Client) WriteFile(path string, data []byte, mode vfs.FileMode) error {
	return c.write(path, request{Op: opWriteFile, Path: path, Data: append([]byte(nil), data...), Mode: uint16(mode)})
}

// WriteString writes a string file.
func (c *Client) WriteString(path, s string) error {
	return c.WriteFile(path, []byte(s), 0o644)
}

// AppendFile appends to a file.
func (c *Client) AppendFile(path string, data []byte, mode vfs.FileMode) error {
	return c.write(path, request{Op: opAppendFile, Path: path, Data: append([]byte(nil), data...), Mode: uint16(mode)})
}

// ReadFile reads a whole file.
func (c *Client) ReadFile(path string) ([]byte, error) {
	rsp, err := c.rcall(request{Op: opReadFile, Path: path})
	if err != nil {
		return nil, err
	}
	return rsp.Data, nil
}

// ReadString reads a whitespace-trimmed string file.
func (c *Client) ReadString(path string) (string, error) {
	b, err := c.ReadFile(path)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

// Remove unlinks a file or empty (or semantically recursive) directory.
func (c *Client) Remove(path string) error {
	return c.write(path, request{Op: opRemove, Path: path})
}

// RemoveAll removes a subtree.
func (c *Client) RemoveAll(path string) error {
	return c.write(path, request{Op: opRemoveAll, Path: path})
}

// Rename moves a file or directory.
func (c *Client) Rename(oldPath, newPath string) error {
	return c.write(oldPath, request{Op: opRename, Path: oldPath, Path2: newPath})
}

// Symlink creates a symbolic link.
func (c *Client) Symlink(target, linkPath string) error {
	return c.write(linkPath, request{Op: opSymlink, Path: linkPath, Path2: target})
}

// Readlink reads a symlink target.
func (c *Client) Readlink(path string) (string, error) {
	rsp, err := c.rcall(request{Op: opReadlink, Path: path})
	if err != nil {
		return "", err
	}
	return string(rsp.Data), nil
}

// Link creates a hard link.
func (c *Client) Link(oldPath, newPath string) error {
	return c.write(newPath, request{Op: opLink, Path: oldPath, Path2: newPath})
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	rsp, err := c.rcall(request{Op: opReadDir, Path: path})
	if err != nil {
		return nil, err
	}
	return rsp.Entries, nil
}

// Stat stats a path, following symlinks.
func (c *Client) Stat(path string) (vfs.Stat, error) {
	rsp, err := c.rcall(request{Op: opStat, Path: path})
	if err != nil {
		return vfs.Stat{}, err
	}
	return rsp.Stat, nil
}

// Lstat stats a path without following a final symlink.
func (c *Client) Lstat(path string) (vfs.Stat, error) {
	rsp, err := c.rcall(request{Op: opLstat, Path: path})
	if err != nil {
		return vfs.Stat{}, err
	}
	return rsp.Stat, nil
}

// Exists reports whether path resolves.
func (c *Client) Exists(path string) bool {
	_, err := c.Stat(path)
	return err == nil
}

// IsDir reports whether path is a directory.
func (c *Client) IsDir(path string) bool {
	st, err := c.Stat(path)
	return err == nil && st.IsDir()
}

// Chmod changes permissions.
func (c *Client) Chmod(path string, mode vfs.FileMode) error {
	return c.write(path, request{Op: opChmod, Path: path, Mode: uint16(mode)})
}

// Chown changes ownership.
func (c *Client) Chown(path string, uid, gid int) error {
	return c.write(path, request{Op: opChown, Path: path, UID: uid, GID: gid})
}

// SetXattr sets an extended attribute (always strict: metadata like
// consistency requirements must not lag).
func (c *Client) SetXattr(path, attr string, value []byte) error {
	_, err := c.mcall(request{Op: opSetXattr, Path: path, Path2: attr, Data: value})
	return err
}

// GetXattr reads an extended attribute.
func (c *Client) GetXattr(path, attr string) ([]byte, error) {
	rsp, err := c.rcall(request{Op: opGetXattr, Path: path, Path2: attr})
	if err != nil {
		return nil, err
	}
	return rsp.Data, nil
}

// ListXattr lists attribute names.
func (c *Client) ListXattr(path string) ([]string, error) {
	rsp, err := c.rcall(request{Op: opListXattr, Path: path})
	if err != nil {
		return nil, err
	}
	return rsp.Names, nil
}

// RemoveXattr removes an attribute.
func (c *Client) RemoveXattr(path, attr string) error {
	_, err := c.mcall(request{Op: opRemoveXattr, Path: path, Path2: attr})
	return err
}

// Glob matches a wildcard pattern server-side.
func (c *Client) Glob(pattern string) ([]string, error) {
	rsp, err := c.rcall(request{Op: opGlob, Path: pattern})
	if err != nil {
		return nil, err
	}
	return rsp.Names, nil
}

// RemoteWatch is a watch on the exported file system; events stream over
// the mount connection. On a reconnecting mount the subscription
// survives connection loss: it is replayed on the fresh connection and a
// synthetic Overflow event marks the gap.
type RemoteWatch struct {
	C  <-chan vfs.Event
	ch chan vfs.Event

	client    *Client
	id        uint64
	path      string
	mask      vfs.EventOp
	recursive bool

	mu     sync.Mutex
	closed bool
}

// AddWatch subscribes to events under path on the server.
func (c *Client) AddWatch(path string, mask vfs.EventOp, recursive bool) (*RemoteWatch, error) {
	w := &RemoteWatch{
		client:    c,
		ch:        make(chan vfs.Event, 4096),
		path:      path,
		mask:      mask,
		recursive: recursive,
	}
	w.C = w.ch
	// Register the watch entry before the call so no event can race past.
	ch := make(chan *response, 1)
	c.mu.Lock()
	switch c.state.Load() {
	case stateClosed:
		c.mu.Unlock()
		return nil, ErrClosed
	case stateDown:
		err := fmt.Errorf("%w: %v", ErrDisconnected, c.connErr)
		c.mu.Unlock()
		return nil, err
	}
	gen, conn, enc := c.gen, c.conn, c.enc
	c.nextID++
	id := c.nextID
	w.id = id
	c.pending[id] = ch
	c.watches[id] = w
	c.mu.Unlock()
	req := request{ID: id, Op: opWatch, Path: path, Mask: uint32(mask), Recursive: recursive}
	if err := c.send(conn, enc, &req); err != nil {
		c.unregister(id)
		c.dropWatch(id)
		c.connLost(gen, err)
		return nil, fmt.Errorf("%w: %v", ErrDisconnected, err)
	}
	if _, err := c.await(id, ch, gen); err != nil {
		c.dropWatch(id)
		return nil, err
	}
	return w, nil
}

func (c *Client) dropWatch(id uint64) {
	c.mu.Lock()
	delete(c.watches, id)
	c.mu.Unlock()
}

func (w *RemoteWatch) deliver(ev vfs.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	select {
	case w.ch <- ev:
	default: // drop like inotify on overflow
	}
}

func (w *RemoteWatch) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
}

// Close unsubscribes.
func (w *RemoteWatch) Close() {
	c := w.client
	c.dropWatch(w.id)
	//yancvet:allow errdrop best-effort unsubscribe; the server reaps watches of dead connections anyway
	_, _ = c.call(request{Op: opUnwatch, Mask: uint32(w.id)})
	w.close()
}
