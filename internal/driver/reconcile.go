package driver

import (
	"errors"
	"strings"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// The driver is level-triggered. A watch event is only a hint that a
// flow directory may no longer match what the switch holds: demux puts
// the directory's path in the connection's dirty set and that is all an
// event ever does. The work happens in a pass, which takes a bounded
// number of dirty paths, reads each flow once under one read transaction
// (yancfs.ReadFlowTx), compares it with the installed-state table
// (sc.flows: what was last pushed under that name) and encodes
// delete-strict, add, or nothing into buffers the connection owns; after
// the transaction has closed the pass's flow-mods leave in one socket
// write, every delete-strict ahead of every add, because two flow
// directories may hold one (match, priority) in turn and the set is taken
// in no order. A flow committed five times between two passes is read
// once and pushed once, at its last version. Attach and a watch overflow
// are the same pass over every name the directory or the table knows
// ("all"), which is also the only case in which a missing directory means
// delete: while events are intact the remove event itself is what retires
// an entry.

const (
	// passMax is how many owed deletes and how many flows one pass takes,
	// which bounds how long it holds the tree lock in read mode and how
	// many bytes it writes at its end.
	passMax = 256
	// bufKeep is the largest write buffer a connection keeps from one pass
	// to the next. A burst grows the buffers to a full pass's worth; an
	// idle connection must not go on holding that, or a thousand switches
	// pin a thousand burst-sized buffers.
	bufKeep = 4 << 10
)

// flowState remembers what was last pushed to hardware for one flow
// directory, so an edit that changes the flow's identity, and the
// directory's removal, can delete the entry it superseded.
type flowState struct {
	flowIdent
	version uint64
}

// flowIdent is what a strict delete names.
type flowIdent struct {
	match    openflow.Match
	priority uint16
}

// dirtyFlow is one path a pass took from the dirty set. sweep marks a
// path put there by "all" rather than by an event.
type dirtyFlow struct {
	path  string
	sweep bool
}

// pushedFlow is a flow-add waiting for its flush, after which the
// install hook hears of it.
type pushedFlow struct {
	path    string
	version uint64
}

// flowName is the last element of a flow directory's path. The paths the
// driver handles come from events or are built from flowsDir, so they
// are clean and the name is what follows the last slash.
//
//yancvet:hotalloc
func flowName(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

// markLocked puts a flow directory's path in the dirty set; sc.mu is
// held. path may be a substring of an event's path: the set is emptied by
// the passes that follow, so it pins the event strings only that long.
//
//yancvet:hotalloc
func (sc *SwitchConn) markLocked(path string, sweep bool) {
	if sc.dirty == nil {
		sc.dirty = make(map[string]bool) //yancvet:alloc the set is dropped after a burst and made again by the next mark
	}
	if _, ok := sc.dirty[path]; !ok || sweep {
		sc.dirty[path] = sweep
	}
}

// markFlow notes that the flow directory at path was committed.
//
//yancvet:hotalloc
func (sc *SwitchConn) markFlow(path string) {
	sc.mu.Lock()
	sc.markLocked(path, false)
	sc.mu.Unlock()
	sc.schedule(pendFlows)
}

// markGone notes that the flow directory at path was removed. Its
// installed identity moves to the owed-deletes list now, not at the next
// pass: a directory recreated under the same name before then is a new
// flow whose version counts from 1 again, and must not be compared with
// the old one's state.
//
//yancvet:hotalloc
func (sc *SwitchConn) markGone(path string) {
	name := flowName(path)
	sc.mu.Lock()
	if st, ok := sc.flows[name]; ok {
		delete(sc.flows, name)
		sc.gone = append(sc.gone, st.flowIdent)
	}
	sc.mu.Unlock()
	sc.schedule(pendFlows)
}

// markMoved notes that a flow directory was renamed within the table:
// the installed state follows the name, so the pass that reads the new
// path finds its version already installed and sends nothing.
//
//yancvet:hotalloc
func (sc *SwitchConn) markMoved(oldPath, newPath string) {
	oldName, newName := flowName(oldPath), flowName(newPath)
	sc.mu.Lock()
	if st, ok := sc.flows[oldName]; ok {
		delete(sc.flows, oldName)
		sc.flows[strings.Clone(newName)] = st //yancvet:alloc a rename: the key must not pin the event's path
	}
	sc.markLocked(newPath, false)
	sc.mu.Unlock()
	sc.schedule(pendFlows)
}

// markAll asks for the whole table to be reconciled and the packet-out
// queue to be looked at: what attach does, and what a watch overflow
// falls back to.
func (sc *SwitchConn) markAll() {
	sc.mu.Lock()
	sc.dirtyAll = true
	sc.mu.Unlock()
	sc.schedule(pendFlows | pendPout)
}

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

// reconcileFlows is one pass: up to passMax owed deletes and up to
// passMax dirty flows read under one read transaction, then one flush. If
// anything is still owed or dirty afterwards the flows bit is set again,
// so the connection takes its next turn behind whoever else is waiting
// for a worker.
//
//yancvet:hotalloc
func (sc *SwitchConn) reconcileFlows() {
	sc.passes.Add(1)
	//yancvet:allow errdrop pass returns nil: it reports per flow
	_ = sc.driver.Y.VFS().ReadTx(sc.passFn)
	// The socket write happens here, after the transaction and with no
	// lock of the driver's held: a slow switch must not hold the tree
	// lock, nor keep demux from marking.
	sc.flush()
	sc.mu.Lock()
	more := len(sc.gone) > 0 || len(sc.dirty) > 0
	sc.mu.Unlock()
	if more {
		sc.schedule(pendFlows)
	}
}

// pass is reconcileFlows' read transaction, bound once per connection as
// sc.passFn so that starting one allocates no closure.
//
//yancvet:hotalloc
func (sc *SwitchConn) pass(tx *vfs.Tx) error {
	sc.mu.Lock()
	sc.takeLocked(tx)
	sc.mu.Unlock()
	for _, d := range sc.take {
		sc.reconcileOne(tx, d)
	}
	clear(sc.take) // the paths may belong to event strings
	sc.take = sc.take[:0]
	return nil
}

// takeLocked takes the pass's work in one hold of sc.mu: up to passMax
// owed deletes, encoded at once, and — when no delete is left owed, since
// a flow read now may claim an identity one of those still holds — up to
// passMax paths from the dirty set, moved to sc.take after "all" has been
// expanded into every name the flows directory or the installed-state
// table has. One hold, because a flow marked after a remove must not be
// taken without it. A remove marked while the pass runs waits for the
// next pass: the entry it retires may be one this pass adds. A list or a
// set that a burst grew past passMax is dropped once it is empty — Go
// maps never shrink — and the next mark makes a new one.
//
//yancvet:hotalloc
func (sc *SwitchConn) takeLocked(tx *vfs.Tx) {
	n := min(len(sc.gone), passMax)
	for _, id := range sc.gone[:n] {
		sc.encodeDelete(id)
	}
	sc.gone = sc.gone[:copy(sc.gone, sc.gone[n:])]
	if len(sc.gone) > 0 {
		return
	}
	if cap(sc.gone) > passMax {
		sc.gone = nil
	}
	if sc.dirtyAll {
		sc.dirtyAll = false
		sc.sweepLocked(tx)
	}
	sc.dirtyBig = sc.dirtyBig || len(sc.dirty) > passMax
	for path, sweep := range sc.dirty {
		if len(sc.take) == passMax {
			break
		}
		sc.take = append(sc.take, dirtyFlow{path, sweep})
		delete(sc.dirty, path)
	}
	if len(sc.dirty) == 0 && sc.dirtyBig {
		sc.dirty, sc.dirtyBig = nil, false
	}
}

// sweepLocked marks every flow directory that exists and every flow that
// is installed; sc.mu is held. The second half is what finds the entry
// whose directory was removed while events were being lost.
func (sc *SwitchConn) sweepLocked(tx *vfs.Tx) {
	//yancvet:allow errdrop a flows directory that is missing lists as empty
	names, _ := tx.DirNames(sc.flowsDir, nil) //yancvet:alloc attach and overflow only
	for _, name := range names {
		sc.markLocked(sc.flowsDir+"/"+name, true) //yancvet:alloc attach and overflow only: one path per flow directory
	}
	for name := range sc.flows {
		sc.markLocked(sc.flowsDir+"/"+name, true) //yancvet:alloc attach and overflow only: one path per installed flow
	}
}

// reconcileOne brings the switch in line with one flow directory. sc.mu
// is held from the table lookup to the table update, so a remove or
// rename marked meanwhile lands wholly before this flow's comparison or
// wholly after it.
//
//yancvet:hotalloc
func (sc *SwitchConn) reconcileOne(tx *vfs.Tx, d dirtyFlow) {
	sc.reconciled.Add(1)
	name := flowName(d.path)
	sc.mu.Lock()
	err := sc.reconcileLocked(tx, d, name)
	sc.mu.Unlock()
	if err != nil {
		sc.driver.Logf("driver: %s: read flow %s: %v", sc.Name, name, err) //yancvet:alloc error path
	}
}

func (sc *SwitchConn) reconcileLocked(tx *vfs.Tx, d dirtyFlow, name string) error {
	prev, known := sc.flows[name]
	version, err := yancfs.ReadFlowTx(tx, d.path, prev.version, &sc.reader)
	if err != nil {
		if !errors.Is(err, vfs.ErrNotExist) && !errors.Is(err, vfs.ErrNotDir) {
			return err
		}
		// Gone. While events are intact its remove event retires the
		// entry (or already has); only a sweep may conclude from the
		// missing directory alone that the entry must go.
		if known && d.sweep {
			delete(sc.flows, name)
			sc.encodeDelete(prev.flowIdent)
		}
		return nil
	}
	if version == prev.version {
		// Not committed, or this commit is already on the switch: the
		// second event of a file-I/O commit, a rename, a sweep.
		if known {
			sc.coalesced.Add(1)
		}
		return nil
	}
	spec := &sc.reader.Spec
	if known && (prev.priority != spec.Priority || !prev.match.Equal(spec.Match)) {
		// The edit changed the flow's identity: the superseded entry goes.
		sc.encodeDelete(prev.flowIdent)
	}
	// The key is the directory's own name string. name is a piece of an
	// event's path, and assigning under it would pin that path for as
	// long as the flow is installed (a map assignment replaces the key).
	key := sc.reader.Name
	if key != name {
		key = strings.Clone(name) //yancvet:alloc a flow directory reached through a symlink
	}
	sc.flows[key] = flowState{flowIdent{spec.Match, spec.Priority}, version}
	sc.fm = openflow.FlowMod{
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
	sc.wadd, ok = sc.encode(sc.wadd)
	sc.pushedN.Add(1)
	if ok && sc.driver.FlowInstalledHook != nil {
		sc.pushed = append(sc.pushed, pushedFlow{d.path, version})
	}
	return nil
}

// encodeDelete encodes the strict delete of one hardware entry into the
// pass's deletes, which leave ahead of its adds.
//
//yancvet:hotalloc
func (sc *SwitchConn) encodeDelete(id flowIdent) {
	sc.fm = openflow.FlowMod{
		Command:  openflow.FlowDeleteStrict,
		Match:    id.match,
		Priority: id.priority,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortAny,
	}
	sc.wdel, _ = sc.encode(sc.wdel)
}

// encode appends sc.fm's wire form to dst, one of the connection's two
// write buffers. No lock of the socket's is involved: the bytes reach it
// in flush. sc.fm is the connection's one FlowMod, reused for every
// flow-mod of every pass: a fresh one would escape through the Message
// interface.
//
//yancvet:hotalloc
func (sc *SwitchConn) encode(dst []byte) ([]byte, bool) {
	sc.txMsgs.Add(1)
	sc.flowmods.Add(1)
	sc.fm.Xid = sc.conn.NewXID()
	b, err := sc.conn.Codec().AppendEncode(dst, &sc.fm)
	sc.fm.Actions = nil // they belong to the reader
	if err != nil {
		sc.driver.Logf("driver: %s: flow-mod: %v", sc.Name, err) //yancvet:alloc error path
		return dst, false
	}
	return b, true
}

// flush sends the pass's flow-mods with one write, deletes first, and
// then tells the install hook about each flow-add it carried.
//
//yancvet:hotalloc
func (sc *SwitchConn) flush() {
	out := sc.wadd
	if len(sc.wdel) > 0 {
		sc.wdel = append(sc.wdel, sc.wadd...)
		out = sc.wdel
	}
	if len(out) > 0 {
		sc.flushes.Add(1)
		if err := sc.conn.WriteRaw(out); err != nil {
			sc.driver.Logf("driver: %s: flow-mod: %v", sc.Name, err) //yancvet:alloc error path
		} else if hook := sc.driver.FlowInstalledHook; hook != nil {
			for _, p := range sc.pushed {
				hook(p.path, p.version)
			}
		}
	}
	sc.wdel, sc.wadd = keepBuf(sc.wdel), keepBuf(sc.wadd)
	clear(sc.pushed)
	sc.pushed = sc.pushed[:0]
}

// keepBuf empties a write buffer for the next pass, or lets go of one a
// burst grew.
func keepBuf(b []byte) []byte {
	if cap(b) > bufKeep {
		return nil
	}
	return b[:0]
}
