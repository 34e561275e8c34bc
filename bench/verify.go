package main

import (
	"fmt"

	"yanc/bench/ofsink"
)

// verify decides whether the run's outputs are correct and how many of the
// attempted operations failed. It appends one line per broken invariant to
// res.Problems.
//
//   - Conservation: every timed operation was completed at a sink or was
//     aborted by a later delete of its flow; nothing else is outstanding
//     after the drain. Aborted and outstanding operations failed.
//   - Per switch, the sink's table equals the fold of the flow directories
//     (yancfs.SnapshotFlows): same entries, same cookie/timeouts/actions.
//   - reactive_miss: each miss produced exactly two FlowAdds and one
//     PacketOut, and the router never fell back to flooding.
func (r *run) verify(res *result, drained bool) {
	trk := r.trk
	trk.mu.Lock()
	issued := trk.issued[phFixed] + trk.issued[phCapacity]
	completed := len(trk.done[phFixed]) + len(trk.done[phCapacity])
	aborted := trk.aborted[phFixed] + trk.aborted[phCapacity]
	open, unexpected := trk.open, trk.unexpected
	trk.mu.Unlock()

	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	res.Attempted = issued
	res.Failed = issued - completed
	res.Notes["ops_completed"] = float64(completed)
	res.Notes["ops_aborted"] = float64(aborted)
	res.Notes["sink_events_unexpected"] = float64(unexpected)
	if !drained || open > 0 {
		problem("%d operations not applied %v after the last one was issued", open, r.cfg.drain)
	}
	if res.Failed != 0 {
		problem("%d of %d operations not applied: %d overtaken by the delete of their flow, %d outstanding",
			res.Failed, issued, aborted, res.Failed-aborted)
	}

	for sw, sink := range r.rig.sinks {
		snaps, err := r.rig.y.SnapshotFlows(switchPath(sw))
		if err != nil {
			problem("snapshot %s: %v", switchPath(sw), err)
			continue
		}
		want := make(map[ofsink.Key]uint64, len(snaps))
		for _, s := range snaps {
			w := addWant(sw, s.Spec)
			want[w.key] = w.body
		}
		got := sink.Table()
		var missing, wrong, surplus int
		for k, body := range want {
			switch b, ok := got[k]; {
			case !ok:
				missing++
			case b != body:
				wrong++
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				surplus++
			}
		}
		if missing+wrong+surplus > 0 {
			problem("sw%d: table ≠ fold of %d flow dirs: %d missing, %d wrong, %d surplus",
				sw+1, len(snaps), missing, wrong, surplus)
			res.Failed += missing + wrong + surplus
		}
	}

	if r.wl.router {
		fill := uint64(r.wl.resident / r.cfg.scale)
		misses := uint64(r.misses)
		c0, c1 := r.rig.sinks[0].Counts(), r.rig.sinks[1].Counts()
		if c0.FlowAdds != fill+misses || c1.FlowAdds != fill+misses || c0.PacketOuts != misses || c1.PacketOuts != 0 || unexpected != 0 {
			problem("%d misses: sw1 %d adds %d packet-outs, sw2 %d adds %d packet-outs, %d unexpected; want one add per switch and one packet-out on sw1 per miss",
				misses, c0.FlowAdds-fill, c0.PacketOuts, c1.FlowAdds-fill, c1.PacketOuts, unexpected)
		}
		if _, floods := r.router.Stats(); floods != 0 {
			problem("router flooded %d misses", floods)
		}
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
}
