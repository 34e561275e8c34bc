// Package driver implements yanc device drivers (§4.1): thin translators
// between the control protocol a switch speaks (OpenFlow 1.0 or 1.3) and
// the yanc file system. A driver
//
//   - accepts a switch's control connection and handshakes as the
//     controller, negotiating the protocol version per switch, so a
//     network can run mixed versions and be upgraded live;
//   - materializes the switch as a directory under switches/ and keeps
//     port files in sync with port-status messages;
//   - reconciles the switch's flow table with its flows/ subtree through
//     a yancfs.Reconciler, the level-triggered core it shares with the
//     slicer and the big switch: a committed flow (a version-file
//     increment, §3.4) marks its directory dirty, a pass reads each dirty
//     flow once inside a read transaction and compares it with what was
//     last pushed, and the driver's sink sends delete-strict, add or
//     nothing, in one socket write per pass with the deletes ahead of the
//     adds (reconcile.go);
//   - feeds packet-in messages into every subscriber's event buffer
//     (§3.5) and serves live counters for the counters/ files;
//   - exposes a packet_out control file for injecting packets.
//
// "With the file system as the API, supporting new protocols only
// requires a new driver" — here both protocol versions go through the
// same translation logic with a per-connection codec.
package driver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// statsTimeout bounds synchronous counter queries to the switch.
const statsTimeout = 2 * time.Second

// Liveness-probe defaults (overridable per Driver).
const (
	DefaultEchoInterval = 5 * time.Second
	DefaultEchoMisses   = 3
)

// Driver manages the control connections of all switches speaking some
// OpenFlow version range, translating to one yanc file system region.
type Driver struct {
	Y          *yancfs.FS
	Region     string // region the switches appear in (usually "/")
	MaxVersion uint8  // highest protocol version to offer
	NameFor    func(dpid uint64) string
	Logf       func(format string, args ...any)

	// FlowInstalledHook, when set, is called once per flow-add, after
	// the socket write that carried it (one per pass, reconcile.go) has
	// returned without error, with the flow directory's path and the
	// version that add installed; commits of one flow that a single pass
	// resolved together produce one call. The libyanc completion ring
	// plugs in here (FlowRing.InstallHook) to report end-to-end installed
	// completions. It runs on driver mux workers — keep it cheap and
	// never call back into the file system. Set it before the first
	// Attach.
	FlowInstalledHook func(flowPath string, version uint64)

	// EchoInterval is how often the driver probes each switch with an
	// OpenFlow echo request; EchoMisses is how many consecutive unanswered
	// probes tear the connection down. A hung switch — one whose TCP
	// connection never errors — is detected this way, so the status file
	// stays truthful about liveness even when the transport lies.
	// EchoInterval <= 0 disables probing.
	EchoInterval time.Duration
	EchoMisses   int

	// Clock overrides the time source for file-stamped timestamps
	// (last_seen). When nil the driver uses the file system's clock
	// (vfs.FS.SetClock), so simulated time in tests governs staleness the
	// same way it governs inode times.
	Clock func() time.Time

	// ProcDir, when non-empty, names a directory (usually
	// /.proc/driver) where the driver publishes per-switch telemetry
	// files: <ProcDir>/<name>/{rtt,echo,tx_rx,pktin,flows}.
	ProcDir string

	mu    sync.Mutex
	conns map[string]*SwitchConn
	mux   *mux // lazily created on first Attach, stopped by Close
}

// New creates a driver for the master region offering up to OF 1.3.
func New(y *yancfs.FS) *Driver {
	return &Driver{
		Y:            y,
		Region:       "/",
		MaxVersion:   openflow.Version13,
		NameFor:      func(dpid uint64) string { return fmt.Sprintf("sw%d", dpid) },
		Logf:         func(string, ...any) {},
		EchoInterval: DefaultEchoInterval,
		EchoMisses:   DefaultEchoMisses,
	}
}

// VerboseLog routes driver logging to the standard logger.
func (d *Driver) VerboseLog() { d.Logf = log.Printf }

// SwitchConn is one connected switch.
type SwitchConn struct {
	Name     string
	Path     string
	Features *openflow.FeaturesReply
	Protocol string

	driver *Driver
	conn   *openflow.Conn
	proc   *vfs.Proc
	mux    *mux

	mu         sync.Mutex
	portConfig map[uint32]uint32 // hardware port config as last seen
	pending    map[uint32]chan *openflow.StatsReply
	echoMiss   int // consecutive unanswered liveness probes
	closed     bool
	done       chan struct{}
	discOnce   sync.Once // onDisconnect runs exactly once
	dirtyPorts []uint32  // ports whose config.port_down was written, under mu

	// flows is what the switch's table holds and what may have drifted
	// from it (reconcile.go).
	flows *yancfs.Reconciler[flowIdent]

	// pend is the word of pending bits that puts the connection on the
	// mux's run queue (mux.go). Everything below it down to the telemetry
	// belongs to the worker serving the connection.
	pend   atomic.Uint32
	fm     openflow.FlowMod // the one FlowMod every flow-mod is encoded from
	wdel   []byte           // the pass's delete-stricts, encoded
	wadd   []byte           // the pass's flow-adds, encoded; sent behind wdel
	pushed []hookCall       // flow-adds encoded since the last flush

	// Packet-in coalescing: the read path enqueues and sets the pktin
	// bit, and drainPktin batches into DeliverPacketInBatch, so a flood
	// of packet-ins costs one file system transaction per batch instead
	// of one per message. pktinBatch is the drain's claim buffer,
	// allocated once per connection and reused every drain.
	pktin      chan *openflow.PacketIn
	pktinBatch []*openflow.PacketIn

	// Control-channel telemetry, published as <ProcDir>/<name> files.
	txMsgs       atomic.Uint64
	rxMsgs       atomic.Uint64
	echoSent     atomic.Uint64
	echoReplies  atomic.Uint64
	echoSentAt   atomic.Int64 // unixnano of the latest probe, for RTT
	rtt          vfs.Histogram
	pktinSeen    atomic.Uint64 // packet-ins read off the wire
	pktinDropped atomic.Uint64 // shed because the coalescing queue was full
	pktinBatches atomic.Uint64 // DeliverPacketInBatch calls issued
	pushedN      atomic.Uint64 // flow-adds encoded
	flushes      atomic.Uint64 // socket writes that carried flow-mods
	flowmods     atomic.Uint64 // flow-mods encoded, adds and strict deletes
}

// maxPktInBatch bounds how many queued packet-ins one delivery
// transaction will coalesce.
const maxPktInBatch = 64

// pktInQueueLen is the readLoop->drainPktin queue depth; beyond it the
// driver sheds packet-ins rather than stall the control channel reader.
const pktInQueueLen = 1024

// now returns the driver's timestamp source for file-stamped times: the
// Clock override when set, else the file system clock.
func (d *Driver) now() time.Time {
	if d.Clock != nil {
		return d.Clock()
	}
	return d.Y.VFS().Now()
}

// write sends one message to the switch, counting it.
func (sc *SwitchConn) write(msg openflow.Message) error {
	sc.txMsgs.Add(1)
	return sc.conn.Write(msg)
}

// handshakeBacklog bounds concurrent handshakes. A mass reconnect (a
// city's worth of switches redialing after a controller restart) must
// not fan a thousand simultaneous handshakes out across the scheduler:
// connections are accepted immediately — so the kernel accept queue
// never overflows and dialers never see spurious timeouts — and then
// handshake in bounded batches.
const handshakeBacklog = 64

// Serve accepts switch connections until the listener closes.
func (d *Driver) Serve(l net.Listener) error {
	sem := make(chan struct{}, handshakeBacklog)
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, err := d.Attach(c); err != nil {
				d.Logf("driver: attach: %v", err)
				c.Close()
			}
		}()
	}
}

// register adds sc to the live connections, on the driver's mux — created
// here on first use (the switches directory must exist, so Attach calls
// this after populate) — and counts sc's reader into the mux's
// WaitGroup. One critical section for all three: a concurrent Close
// either sees the connection and joins its reader, or runs first and
// leaves this Attach a fresh mux. Returns the connection replaced, if any.
func (d *Driver) register(sc *SwitchConn) (*SwitchConn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.mux == nil {
		m, err := newMux(d)
		if err != nil {
			return nil, err
		}
		d.mux = m
	}
	sc.mux = d.mux
	sc.mux.wg.Add(1)
	if d.conns == nil {
		d.conns = make(map[string]*SwitchConn)
	}
	old := d.conns[sc.Name]
	d.conns[sc.Name] = sc
	return old, nil
}

// snapshotConns returns the live connections.
func (d *Driver) snapshotConns() []*SwitchConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*SwitchConn, 0, len(d.conns)) //yancvet:alloc echo ticks and watch overflows only
	for _, sc := range d.conns {
		out = append(out, sc)
	}
	return out
}

// Attach handshakes a switch control channel and wires it into the file
// system. It returns once the switch directory is fully populated; the
// translation loops run until the connection dies or Close is called.
// Close stops a connection's reader by closing rw, so rw must be an
// io.Closer (every net.Conn is) or Close waits for the peer to hang up.
func (d *Driver) Attach(rw io.ReadWriter) (*SwitchConn, error) {
	conn := openflow.NewConn(rw)
	features, err := conn.HandshakeController(d.MaxVersion)
	if err != nil {
		return nil, fmt.Errorf("driver: handshake: %w", err)
	}
	name := d.NameFor(features.DatapathID)
	sc := &SwitchConn{
		Name:       name,
		Path:       vfs.Join(d.Region, yancfs.DirSwitches, name),
		Features:   features,
		Protocol:   protocolName(conn.Version()),
		driver:     d,
		conn:       conn,
		proc:       d.Y.Root(),
		portConfig: make(map[uint32]uint32),
		pending:    make(map[uint32]chan *openflow.StatsReply),
		pktin:      make(chan *openflow.PacketIn, pktInQueueLen),
		pktinBatch: make([]*openflow.PacketIn, 0, maxPktInBatch),
		done:       make(chan struct{}),
	}
	sc.flows = yancfs.NewReconciler[flowIdent](d.Y.VFS(), vfs.Join(sc.Path, "flows"), (*flowSink)(sc))
	for _, p := range features.Ports {
		sc.portConfig[p.No] = p.Config
	}
	if err := sc.populate(); err != nil {
		return nil, err
	}
	// The shared switches/ watch (created with the mux) is registered
	// before the connection is, so no commit after this point can be
	// missed: events raced against registration are covered by the first
	// pass, over every name, everything later marks this connection.
	old, err := d.register(sc)
	if err != nil {
		return nil, err
	}
	if old != nil {
		old.stop()
	}
	if d.ProcDir != "" {
		d.installProcFiles(name)
	}
	// The file system stays truthful about liveness from the moment
	// Attach returns.
	_ = sc.proc.WriteString(vfs.Join(sc.Path, "status"), "connected\n")
	sc.touchLastSeen()

	// Push any flows already committed in the file system (controller
	// restart / live protocol upgrade: the network state outlives the
	// connection). A new flow table's first pass looks at every name.
	sc.schedule(pendFlows)

	go sc.readLoop()
	d.Logf("driver: %s attached (dpid %016x, %s, %d ports)",
		name, features.DatapathID, sc.Protocol, len(features.Ports))
	return sc, nil
}

// Lookup returns the connection for a switch name.
func (d *Driver) Lookup(name string) *SwitchConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conns[name]
}

// Close stops all switch connections and the mux behind them, and
// returns once every reader and mux goroutine has exited: nothing the
// driver started touches the file system afterwards. The driver is
// reusable: a later Attach lazily builds a fresh mux.
func (d *Driver) Close() {
	d.mu.Lock()
	conns := make([]*SwitchConn, 0, len(d.conns))
	for _, sc := range d.conns {
		conns = append(conns, sc)
	}
	d.conns = nil
	m := d.mux
	d.mux = nil
	d.mu.Unlock()
	for _, sc := range conns {
		sc.stop()
	}
	if m != nil {
		m.stop()
	}
}

func protocolName(version uint8) string {
	switch version {
	case openflow.Version10:
		return "openflow10"
	case openflow.Version13:
		return "openflow13"
	default:
		return fmt.Sprintf("openflow-%02x", version)
	}
}

// populate creates and fills the switch directory, installs the
// packet_out control file, and binds live counters.
func (sc *SwitchConn) populate() error {
	p := sc.proc
	if !p.Exists(sc.Path) {
		if _, err := yancfs.CreateSwitch(p, sc.driver.Region, sc.Name); err != nil {
			return err
		}
	}
	if err := yancfs.PopulateSwitch(p, sc.Path, sc.Features, sc.Protocol); err != nil {
		return err
	}
	// packet_out control file: writing an action spec plus payload sends
	// a packet-out to the switch.
	err := sc.driver.Y.VFS().WithTx(func(tx *vfs.Tx) error {
		return tx.SetSynthetic(vfs.Join(sc.Path, "packet_out"), &vfs.Synthetic{
			Write: sc.handlePacketOutWrite,
		}, 0o644, 0, 0)
	})
	if err != nil {
		return err
	}
	sc.driver.Y.BindCounters(sc.Path, sc)
	return nil
}

// stop tears the connection down: close the transport (which ends the
// reader goroutine) and run the disconnect bookkeeping exactly once.
func (sc *SwitchConn) stop() {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.closed = true
	close(sc.done)
	sc.mu.Unlock()
	sc.conn.Close()
	sc.discOnce.Do(sc.onDisconnect)
}

// onDisconnect is the disconnect bookkeeping shared by every teardown
// path. The switch directory (and its committed flows) persists across
// disconnects so a reconnecting or upgraded switch is resynced from it,
// but its status file says the control channel is down. If another
// connection has already replaced this one (fast reconnect), the
// replacement owns the status file and the write is skipped.
func (sc *SwitchConn) onDisconnect() {
	d := sc.driver
	d.mu.Lock()
	current := d.conns == nil || d.conns[sc.Name] == sc
	if d.conns != nil && d.conns[sc.Name] == sc {
		delete(d.conns, sc.Name)
	}
	d.mu.Unlock()
	if current {
		_ = sc.proc.WriteString(vfs.Join(sc.Path, "status"), "disconnected\n")
	}
}

// Done is closed when the connection has shut down.
func (sc *SwitchConn) Done() <-chan struct{} { return sc.done }

// touchLastSeen records proof-of-life from the switch in its last_seen
// file (unix seconds), so operators and apps can judge staleness by
// reading a file, per the everything-is-a-file discipline.
func (sc *SwitchConn) touchLastSeen() {
	_ = sc.proc.WriteString(vfs.Join(sc.Path, "last_seen"),
		strconv.FormatInt(sc.driver.now().Unix(), 10)+"\n")
}

// echoProbe is one liveness tick for this connection, scheduled by the
// mux's echo loop through the echo bit. When `misses` consecutive probes
// go unanswered the connection is torn down, which flips status to
// "disconnected" even though TCP never reported an error — the
// hung-switch case a production controller must detect.
func (sc *SwitchConn) echoProbe(misses int) {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	missed := sc.echoMiss
	sc.echoMiss++
	sc.mu.Unlock()
	if missed >= misses {
		sc.driver.Logf("driver: %s: %d echo probes unanswered, tearing down", sc.Name, missed)
		sc.stop()
		return
	}
	sc.echoSent.Add(1)
	sc.echoSentAt.Store(sc.driver.now().UnixNano())
	_ = sc.write(&openflow.EchoRequest{})
}

// readLoop is the connection's read path: one goroutine blocked in
// Conn.Read, parked on the runtime's network poller while the switch is
// quiet. A read error or a malformed frame tears the connection down.
func (sc *SwitchConn) readLoop() {
	defer sc.mux.wg.Done()
	defer sc.stop()
	for {
		msg, err := sc.conn.Read()
		if err != nil {
			return
		}
		sc.handleMessage(msg)
	}
}

// handleMessage dispatches one message arriving from the switch. Only
// the connection's readLoop calls it.
func (sc *SwitchConn) handleMessage(msg openflow.Message) {
	sc.rxMsgs.Add(1)
	switch m := msg.(type) {
	case *openflow.PacketIn:
		sc.pktinSeen.Add(1)
		// Hand off to the coalescing drain; shedding here (full queue =
		// the file system cannot keep up) keeps the control channel
		// reader responsive to echoes and barriers.
		select {
		case sc.pktin <- m:
		default:
			sc.pktinDropped.Add(1)
			return
		}
		sc.schedule(pendPktin)
	case *openflow.PortStatus:
		sc.handlePortStatus(m)
	case *openflow.FlowRemoved:
		sc.handleFlowRemoved(m)
	case *openflow.EchoRequest:
		_ = sc.write(&openflow.EchoReply{Header: openflow.Header{Xid: m.Xid}, Data: m.Data})
	case *openflow.EchoReply:
		sc.mu.Lock()
		sc.echoMiss = 0
		sc.mu.Unlock()
		sc.echoReplies.Add(1)
		if at := sc.echoSentAt.Swap(0); at > 0 {
			sc.rtt.Observe(time.Duration(sc.driver.now().UnixNano() - at))
		}
		sc.touchLastSeen()
	case *openflow.StatsReply:
		sc.mu.Lock()
		ch := sc.pending[m.Xid]
		delete(sc.pending, m.Xid)
		sc.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	case *openflow.Error:
		sc.driver.Logf("driver: %s: switch error 0x%08x", sc.Name, m.Code)
	}
}

// drainPktin coalesces queued packet-ins into batched file-system
// deliveries (up to maxPktInBatch per transaction) until the queue is
// empty. A producer sets the pktin bit after it has enqueued, so a
// message that arrives behind the last look at the queue brings the
// drain back. The claim buffer lives on the connection so a drain costs
// zero allocations of its own; the per-batch cost is the delivery
// transaction.
//
//yancvet:hotalloc
func (sc *SwitchConn) drainPktin() {
	batch := sc.pktinBatch[:0]
	for {
	collect:
		for len(batch) < maxPktInBatch {
			select {
			case pi := <-sc.pktin:
				batch = append(batch, pi)
			default:
				break collect
			}
		}
		if len(batch) == 0 {
			return
		}
		sc.pktinBatches.Add(1)
		//yancvet:alloc one delivery transaction per batch is the coalescing contract
		if err := sc.driver.Y.DeliverPacketInBatch(sc.driver.Region, sc.Name, batch); err != nil {
			sc.driver.Logf("driver: %s: deliver packet-in batch (%d): %v", sc.Name, len(batch), err) //yancvet:alloc error path
		}
		// Drop the packet refs so delivered messages are collectable
		// while the buffer idles between bursts.
		for i := range batch {
			batch[i] = nil
		}
		batch = batch[:0]
	}
}

// handlePortStatus reflects a hardware port change into the port files.
func (sc *SwitchConn) handlePortStatus(ps *openflow.PortStatus) {
	sc.mu.Lock()
	sc.portConfig[ps.Port.No] = ps.Port.Config
	sc.mu.Unlock()
	switch ps.Reason {
	case openflow.PortDeleted:
		_ = sc.proc.RemoveAll(vfs.Join(sc.Path, "ports", strconv.FormatUint(uint64(ps.Port.No), 10)))
	default:
		if err := yancfs.PopulatePort(sc.proc, sc.Path, ps.Port); err != nil {
			sc.driver.Logf("driver: %s: port status: %v", sc.Name, err)
		}
	}
}

// handleFlowRemoved deletes the corresponding flow directory when the
// hardware expires an entry, keeping the file system truthful. A removal
// by delete is the echo of the driver's own delete-strict: the directory
// it was sent for is gone or holds another identity by now, and the
// identity may already belong to another flow directory whose add followed
// the delete onto the wire, so acting on the echo would remove the new
// owner's directory and strand its entry.
func (sc *SwitchConn) handleFlowRemoved(fr *openflow.FlowRemoved) {
	if fr.Reason == openflow.RemovedDelete {
		return
	}
	name, ok := sc.flows.Forget(func(id flowIdent) bool {
		return id.priority == fr.Priority && id.match.Equal(fr.Match)
	})
	if ok {
		_ = sc.proc.RemoveAll(vfs.Join(sc.Path, "flows", name))
	}
}

// syncPortConfig pushes an administrator's config.port_down write to the
// switch — but only when it differs from the hardware state, breaking the
// reflection loop with handlePortStatus.
func (sc *SwitchConn) syncPortConfig(no uint32) {
	portDir := vfs.Join(sc.Path, "ports", strconv.FormatUint(uint64(no), 10))
	down, err := yancfs.PortDown(sc.proc, portDir)
	if err != nil {
		return
	}
	var want uint32
	if down {
		want = openflow.PortConfigDown
	}
	sc.mu.Lock()
	cur, known := sc.portConfig[no]
	sc.mu.Unlock()
	if known && cur&openflow.PortConfigDown == want {
		return
	}
	hw, _ := func() (openflow.PortInfo, bool) {
		for _, p := range sc.Features.Ports {
			if p.No == no {
				return p, true
			}
		}
		return openflow.PortInfo{}, false
	}()
	_ = sc.write(&openflow.PortMod{
		PortNo: no,
		HWAddr: hw.HWAddr,
		Config: want,
		Mask:   openflow.PortConfigDown,
	})
}

// handlePacketOutWrite parses the packet_out control file format:
// first line "out=<port>[,<more actions>] [in_port=<n>] [buffer_id=<id>]",
// remaining bytes are the raw frame. The write owns data (a whole-file
// write hands over a copy, a handle its buffer), so the frame is sent
// as a slice of it. It runs on the writer's goroutine: the message goes
// onto the control channel before the write returns.
func (sc *SwitchConn) handlePacketOutWrite(data []byte) error {
	head, payload, _ := bytes.Cut(data, []byte{'\n'})
	po, err := openflow.ParsePacketOutSpec(string(head))
	if err != nil {
		return fmt.Errorf("driver: %v: %w", err, vfs.ErrInvalid)
	}
	po.Data = payload
	return sc.write(po)
}

// queryStats performs a synchronous stats round trip.
func (sc *SwitchConn) queryStats(req *openflow.StatsRequest) (*openflow.StatsReply, bool) {
	ch := make(chan *openflow.StatsReply, 1)
	xid := sc.conn.NewXID()
	req.Xid = xid
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil, false
	}
	sc.pending[xid] = ch
	sc.mu.Unlock()
	if err := sc.write(req); err != nil {
		sc.mu.Lock()
		delete(sc.pending, xid)
		sc.mu.Unlock()
		return nil, false
	}
	select {
	case rep := <-ch:
		return rep, true
	case <-time.After(statsTimeout): //yancvet:wallclock stats RPC timeout bounds real network I/O
		sc.mu.Lock()
		delete(sc.pending, xid)
		sc.mu.Unlock()
		return nil, false
	case <-sc.done:
		return nil, false
	}
}

// FlowCounters implements yancfs.CounterSource by querying the switch.
func (sc *SwitchConn) FlowCounters(flowName string) (packets, bytes uint64, ok bool) {
	st, known := sc.flows.Installed(flowName)
	if !known {
		return 0, 0, false
	}
	rep, ok := sc.queryStats(&openflow.StatsRequest{Kind: openflow.StatsFlow, Match: st.match})
	if !ok {
		return 0, 0, false
	}
	for _, fl := range rep.Flows {
		if fl.Priority == st.priority && fl.Match.Equal(st.match) {
			return fl.PacketCount, fl.ByteCount, true
		}
	}
	return 0, 0, false
}

// PortCounters implements yancfs.CounterSource by querying the switch.
func (sc *SwitchConn) PortCounters(no uint32) (yancfs.PortCounterSet, bool) {
	rep, ok := sc.queryStats(&openflow.StatsRequest{Kind: openflow.StatsPort, Port: no})
	if !ok {
		return yancfs.PortCounterSet{}, false
	}
	for _, ps := range rep.Ports {
		if ps.PortNo == no {
			return yancfs.PortCounterSet{
				RxPackets: ps.RxPackets,
				TxPackets: ps.TxPackets,
				RxBytes:   ps.RxBytes,
				TxBytes:   ps.TxBytes,
				RxDropped: ps.RxDropped,
				TxDropped: ps.TxDropped,
			}, true
		}
	}
	return yancfs.PortCounterSet{}, false
}
