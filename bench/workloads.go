package main

import (
	"fmt"

	"yanc/bench/ofsink"
	"yanc/internal/benchutil"
	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/yancfs"
)

// workload is one set of inputs the benchmark runs. The rates are frozen:
// each was calibrated once to about 30 % of the capacity measured on the
// 2-core box the benchmark was written on (see README.md), and a later
// change is compared against the same offered load, not against a load
// that follows it.
type workload struct {
	name     string
	rate     float64 // fixed-rate phase, operations per second
	resident int     // flows per switch filled during set-up
	ring     bool    // the op stream rides a libyanc.FlowRing, not file I/O
	scanner  bool    // a closed-loop reader scans the tree beside the writes
	router   bool    // apps.Router serves table misses
	step     func(r *run, o *op) error
}

var workloads = []*workload{
	{name: "install_file", rate: 1500, resident: 2048, step: (*run).stepInstall},
	{name: "install_ring", rate: 4000, resident: 2048, ring: true, step: (*run).stepInstall},
	{name: "reactive_miss", rate: 400, resident: 2048, router: true, step: (*run).stepMiss},
	{name: "churn_scan", rate: 800, resident: 10000, scanner: true, step: (*run).stepChurn},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// churnGuard is how many of the oldest live flows a churn_scan modify
// leaves alone. Deletes take the oldest flow, so a modify can only race a
// delete of the same flow if more than churnGuard deletes are in flight —
// which keeps every operation's outcome a function of the seed alone.
const churnGuard = 1024

func flowPath(idx int) string {
	return fmt.Sprintf("/switches/sw%d/flows/f%07d", 1+idx%nSwitches, idx)
}

// liveFlow is a flow directory the op stream created and has not deleted.
type liveFlow struct {
	idx int
	key ofsink.Key
}

// addWant is the FlowAdd a sink must apply for spec. Only what Key and
// Body cover is filled in.
func addWant(sw int, spec yancfs.FlowSpec) want {
	key, body, err := ofsink.KeyOf(openflow.Version13, &openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Match:       spec.Match,
		Priority:    spec.Priority,
		IdleTimeout: spec.IdleTimeout,
		HardTimeout: spec.HardTimeout,
		Cookie:      spec.Cookie,
		Actions:     spec.Actions,
	})
	if err != nil {
		panic(err) // FlowAdd always encodes
	}
	return want{partKey: partKey{sw: sw, kind: ofsink.FlowAdd, key: key}, body: body}
}

// create writes the next flow of the stream.
func (r *run) create(o *op) error {
	idx := r.nextIdx
	r.nextIdx++
	spec := benchutil.SampleFlowSpec(idx)
	w := addWant(idx%nSwitches, spec)
	r.trk.expect(o, w)
	r.live = append(r.live, liveFlow{idx: idx, key: w.key})
	return r.put(o, idx, spec)
}

// deleteOldest removes the oldest live flow; it completes on the sink's
// FlowDeleteStrict.
func (r *run) deleteOldest(o *op) error {
	f := r.live[0]
	r.live = r.live[1:]
	sw := f.idx % nSwitches
	r.trk.abort(partKey{sw: sw, kind: ofsink.FlowAdd, key: f.key})
	r.trk.expect(o, want{partKey: partKey{sw: sw, kind: ofsink.FlowDelete, key: f.key}, anyBody: true})
	return r.del(o, f.idx)
}

// stepInstall is the install_file / install_ring operation: create flow i,
// then delete the oldest flow so the resident set stays where set-up left
// it. The operation completes on the FlowAdd; the delete is checked by the
// verifier's table comparison.
func (r *run) stepInstall(o *op) error {
	if err := r.create(o); err != nil {
		return err
	}
	if len(r.live) <= r.wl.resident*nSwitches {
		return nil
	}
	return r.deleteOldest(&op{id: -1, phase: o.phase})
}

// stepChurn draws create:modify:delete 2:1:1 from the seeded stream.
func (r *run) stepChurn(o *op) error {
	c := r.rng.Intn(4)
	switch {
	case c < 2 || len(r.live) <= churnGuard:
		return r.create(o)
	case c == 2:
		f := r.live[churnGuard+r.rng.Intn(len(r.live)-churnGuard)]
		spec := benchutil.SampleFlowSpec(f.idx)
		// Same match and priority, so the switch rewrites the entry in place.
		spec.Actions[0].TOS = uint8(4 * (1 + r.rng.Intn(32)))
		r.trk.expect(o, addWant(f.idx%nSwitches, spec))
		return r.put(o, f.idx, spec)
	default:
		return r.deleteOldest(o)
	}
}

// The reactive_miss topology: h1 — sw1:1, sw1:2 — sw2:2, sw2:1 — h2.
var (
	h1MAC = ethernet.MAC{0x02, 0, 0, 0, 0, 0x01}
	h2MAC = ethernet.MAC{0x02, 0, 0, 0, 0, 0x02}
	h2IP  = ethernet.IP4{192, 168, 0, 2}
)

// missFrame is the i-th table miss: a TCP segment from h1 to h2 with a
// 5-tuple no earlier miss used.
func missFrame(i int) []byte {
	tcp := ethernet.TCP{SrcPort: uint16(1024 + i%60000), DstPort: 80, Flags: ethernet.TCPSyn}
	ip := ethernet.IPv4{
		TTL: 64, Protocol: ethernet.ProtoTCP,
		Src: ethernet.IP4{10, byte(i >> 16), byte(i >> 8), byte(i)}, Dst: h2IP,
		Payload: tcp.Serialize(),
	}
	return ethernet.Frame{Dst: h2MAC, Src: h1MAC, Type: ethernet.TypeIPv4, Payload: ip.Serialize()}.Serialize()
}

// stepMiss has sink 1 report a table miss. It completes when both path
// switches hold the router's exact-match flow and sw1 got the packet-out.
func (r *run) stepMiss(o *op) error {
	frame := missFrame(r.misses)
	r.misses++
	pf, err := openflow.ExtractFields(frame, 1)
	if err != nil {
		return err
	}
	hop := func(sw int, inPort, outPort uint32) want {
		m := openflow.ExactMatch(pf)
		m.InPort = inPort
		return addWant(sw, yancfs.FlowSpec{
			Match: m, Priority: 100, IdleTimeout: 60,
			Actions: []openflow.Action{openflow.Output(outPort)},
		})
	}
	r.trk.expect(o,
		hop(0, 1, 2),
		hop(1, 2, 1),
		want{partKey: partKey{sw: 0, kind: ofsink.PacketOut, key: ofsink.PacketKey(frame)}, anyBody: true},
	)
	r.tr.issued(o, -1)
	return r.rig.sinks[0].SendPacketIn(1, frame)
}
