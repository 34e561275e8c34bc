package driver

import (
	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// Each connection's flows/ directory is reconciled into the switch's
// table by a yancfs.Reconciler; demux marks it (mux.go) and the flows bit
// runs its pass. The connection is the pass's sink: inside the read
// transaction it encodes delete-strict or add into buffers it owns, and
// after it the pass's flow-mods leave in one socket write, every
// delete-strict ahead of every add, because two flow directories may hold
// one (match, priority) in turn and the dirty set is taken in no order.

// bufKeep is the largest write buffer a connection keeps from one pass to
// the next. A burst grows the buffers to a full pass's worth; an idle
// connection must not go on holding that, or a thousand switches pin a
// thousand burst-sized buffers.
const bufKeep = 4 << 10

// flowIdent is what a strict delete names: the table records it per flow
// so that an identity change or a removal can delete what it superseded.
type flowIdent struct {
	match    openflow.Match
	priority uint16
}

// hookCall is a flow-add waiting for its flush, after which the
// install hook hears of it.
type hookCall struct {
	path    string
	version uint64
}

// flowSink is a connection seen as the yancfs.Sink of its flow table.
type flowSink SwitchConn

// markPort notes that port no's config.port_down file was written.
//
//yancvet:hotalloc
func (sc *SwitchConn) markPort(no uint32) {
	sc.mu.Lock()
	known := false
	for _, p := range sc.dirtyPorts {
		known = known || p == no
	}
	if !known {
		sc.dirtyPorts = append(sc.dirtyPorts, no)
	}
	sc.mu.Unlock()
	sc.schedule(pendPorts)
}

// reconcilePorts pushes the administrator's config.port_down of every
// marked port to the switch.
func (sc *SwitchConn) reconcilePorts() {
	sc.mu.Lock()
	ports := sc.dirtyPorts
	sc.dirtyPorts = nil
	sc.mu.Unlock()
	for _, no := range ports {
		sc.syncPortConfig(no)
	}
}

// reconcileFlows is one pass of the flow table. If anything is still owed
// or dirty afterwards the flows bit is set again, so the connection takes
// its next turn behind whoever else is waiting for a worker.
//
//yancvet:hotalloc
func (sc *SwitchConn) reconcileFlows() {
	if sc.flows.Pass() {
		sc.schedule(pendFlows)
	}
}

// Install encodes the flow-add of a changed flow, behind the strict
// delete of the identity it held before if the edit changed it.
//
//yancvet:hotalloc
func (t *flowSink) Install(path string, version uint64, spec *yancfs.FlowSpec, prev flowIdent, known bool) flowIdent {
	if known && (prev.priority != spec.Priority || !prev.match.Equal(spec.Match)) {
		t.Retire(prev)
	}
	t.fm = openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Match:       spec.Match,
		Priority:    spec.Priority,
		IdleTimeout: spec.IdleTimeout,
		HardTimeout: spec.HardTimeout,
		Cookie:      spec.Cookie,
		BufferID:    openflow.NoBuffer,
		OutPort:     openflow.PortAny,
		Flags:       openflow.FlagSendFlowRem,
		Actions:     spec.Actions,
	}
	var ok bool
	t.wadd, ok = t.encode(t.wadd)
	t.pushedN.Add(1)
	if ok && t.driver.FlowInstalledHook != nil {
		t.pushed = append(t.pushed, hookCall{path, version})
	}
	return flowIdent{spec.Match, spec.Priority}
}

// Retire encodes the strict delete of an entry the table gave up into
// the pass's deletes, which leave ahead of its adds.
//
//yancvet:hotalloc
func (t *flowSink) Retire(id flowIdent) {
	t.fm = openflow.FlowMod{
		Command:  openflow.FlowDeleteStrict,
		Match:    id.match,
		Priority: id.priority,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortAny,
	}
	t.wdel, _ = t.encode(t.wdel)
}

// Unreadable logs a flow that would not parse; the switch keeps what it
// has until the next commit.
func (t *flowSink) Unreadable(path string, err error) {
	t.driver.Logf("driver: %s: read flow %s: %v", t.Name, vfs.Base(path), err)
}

// encode appends t.fm's wire form to dst, one of the connection's two
// write buffers. No lock of the socket's is involved: the bytes reach it
// in Flush. t.fm is the connection's one FlowMod, reused for every
// flow-mod of every pass: a fresh one would escape through the Message
// interface.
//
//yancvet:hotalloc
func (t *flowSink) encode(dst []byte) ([]byte, bool) {
	t.txMsgs.Add(1)
	t.flowmods.Add(1)
	t.fm.Xid = t.conn.NewXID()
	b, err := t.conn.Codec().AppendEncode(dst, &t.fm)
	t.fm.Actions = nil // they belong to the reader
	if err != nil {
		t.driver.Logf("driver: %s: flow-mod: %v", t.Name, err) //yancvet:alloc error path
		return dst, false
	}
	return b, true
}

// Flush sends the pass's flow-mods with one write, deletes first, and
// then tells the install hook about each flow-add it carried. The pass
// calls it after its transaction, with no lock of the driver's held: a
// slow switch must not hold the tree lock, nor keep demux from marking.
//
//yancvet:hotalloc
func (t *flowSink) Flush() {
	out := t.wadd
	if len(t.wdel) > 0 {
		t.wdel = append(t.wdel, t.wadd...)
		out = t.wdel
	}
	if len(out) > 0 {
		t.flushes.Add(1)
		if err := t.conn.WriteRaw(out); err != nil {
			t.driver.Logf("driver: %s: flow-mod: %v", t.Name, err) //yancvet:alloc error path
		} else if hook := t.driver.FlowInstalledHook; hook != nil {
			for _, p := range t.pushed {
				hook(p.path, p.version)
			}
		}
	}
	t.wdel, t.wadd = keepBuf(t.wdel), keepBuf(t.wadd)
	clear(t.pushed)
	t.pushed = t.pushed[:0]
}

// keepBuf empties a write buffer for the next pass, or lets go of one a
// burst grew.
func keepBuf(b []byte) []byte {
	if cap(b) > bufKeep {
		return nil
	}
	return b[:0]
}
