package driver

import (
	"fmt"
	"strings"

	"yanc/internal/vfs"
)

// installProcFiles publishes the switch's control-channel telemetry as
// synthetic files under <ProcDir>/<name>. The files capture the driver
// and the switch name — not the SwitchConn — and resolve the live
// connection through Lookup on every read, so they survive reconnects
// and report "disconnected" while the switch is away.
func (d *Driver) installProcFiles(name string) {
	dir := vfs.Join(d.ProcDir, name)
	file := func(render func(sc *SwitchConn) string) *vfs.Synthetic {
		return &vfs.Synthetic{Read: func() ([]byte, error) {
			sc := d.Lookup(name)
			if sc == nil {
				return []byte("disconnected\n"), nil
			}
			return []byte(render(sc)), nil
		}}
	}
	err := d.Y.VFS().WithTx(func(tx *vfs.Tx) error {
		if err := tx.MkdirAll(dir, 0o555, 0, 0); err != nil {
			return err
		}
		for fname, render := range map[string]func(*SwitchConn) string{
			"rtt":   renderRTT,
			"echo":  renderEcho,
			"tx_rx": renderTxRx,
			"pktin": renderPktIn,
			"flows": renderFlows,
		} {
			if err := tx.SetSynthetic(vfs.Join(dir, fname), file(render), 0o444, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		d.Logf("driver: %s: install proc files: %v", name, err)
	}
}

// renderRTT reports the echo round-trip-time histogram.
func renderRTT(sc *SwitchConn) string {
	s := sc.rtt.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "count %d\n", s.Count)
	fmt.Fprintf(&b, "avg %v\n", s.Avg())
	fmt.Fprintf(&b, "p50 %v\n", s.Quantile(0.50))
	fmt.Fprintf(&b, "p99 %v\n", s.Quantile(0.99))
	fmt.Fprintf(&b, "max %v\n", s.Max)
	return b.String()
}

// renderEcho reports liveness-probe accounting.
func renderEcho(sc *SwitchConn) string {
	sc.mu.Lock()
	streak := sc.echoMiss
	sc.mu.Unlock()
	return fmt.Sprintf("sent %d\nreplies %d\nmiss_streak %d\n",
		sc.echoSent.Load(), sc.echoReplies.Load(), streak)
}

// renderTxRx reports control-channel message counts.
func renderTxRx(sc *SwitchConn) string {
	return fmt.Sprintf("tx %d\nrx %d\n", sc.txMsgs.Load(), sc.rxMsgs.Load())
}

// renderPktIn reports the packet-in coalescing pipeline: messages read
// off the wire, shed under backpressure, and delivery batches issued.
func renderPktIn(sc *SwitchConn) string {
	return fmt.Sprintf("seen %d\nshed %d\nbatches %d\n",
		sc.pktinSeen.Load(), sc.pktinDropped.Load(), sc.pktinBatches.Load())
}

// renderFlows reports the reconcile loop: flow paths waiting for a pass,
// passes run, flow directories they looked at, flow-adds they queued,
// marks that found their version already on the switch, socket writes
// that carried flow-mods, and flow-mods queued (adds and strict deletes).
func renderFlows(sc *SwitchConn) string {
	st := sc.flows.Stats()
	return fmt.Sprintf("dirty %d\npasses %d\nreconciled %d\npushed %d\ncoalesced %d\nflushes %d\nflowmods %d\n",
		st.Dirty, st.Passes, st.Reconciled, sc.pushedN.Load(),
		st.Coalesced, sc.flushes.Load(), sc.flowmods.Load())
}
