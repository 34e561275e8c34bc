package ofsink

import (
	"fmt"
	"net"
	"testing"
	"time"

	"yanc/internal/benchutil"
	"yanc/internal/driver"
	"yanc/internal/openflow"
	"yanc/internal/yancfs"
)

func flowMod(cmd uint8, i int, outPort uint32) *openflow.FlowMod {
	spec := benchutil.SampleFlowSpec(i)
	return &openflow.FlowMod{
		Header: openflow.Header{Xid: 7}, Command: cmd, Match: spec.Match, Priority: spec.Priority,
		IdleTimeout: spec.IdleTimeout, BufferID: openflow.NoBuffer, OutPort: openflow.PortAny,
		Actions: []openflow.Action{openflow.Output(outPort)},
	}
}

// TestTableFold: add, re-add with other actions, delete-strict — in both
// wire versions the table ends up as a real switch's would.
func TestTableFold(t *testing.T) {
	for _, version := range []uint8{openflow.Version10, openflow.Version13} {
		codec, err := openflow.NewCodec(version)
		if err != nil {
			t.Fatal(err)
		}
		s := &Sink{}
		var events []Event
		s.OnEvent = func(ev Event) { events = append(events, ev) }
		feed := func(fm *openflow.FlowMod) {
			raw, err := codec.Encode(fm)
			if err != nil {
				t.Fatal(err)
			}
			ev, ok := ParseFrame(raw)
			if !ok {
				t.Fatalf("v%d: flow-mod command %d not parsed", version, fm.Command)
			}
			s.apply(ev)
		}
		feed(flowMod(openflow.FlowAdd, 1, 1))
		feed(flowMod(openflow.FlowAdd, 2, 1))
		first := s.Table()
		feed(flowMod(openflow.FlowAdd, 1, 2)) // same match and priority, new actions
		second := s.Table()
		if len(first) != 2 || len(second) != 2 {
			t.Fatalf("v%d: re-add changed the entry count: %d then %d", version, len(first), len(second))
		}
		k1, body1, err := KeyOf(version, flowMod(openflow.FlowAdd, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		if second[k1] != body1 || first[k1] == body1 {
			t.Fatalf("v%d: re-add did not replace the entry's body", version)
		}
		k2, _, _ := KeyOf(version, flowMod(openflow.FlowAdd, 2, 1))
		if k1 == k2 {
			t.Fatalf("v%d: distinct matches share a key", version)
		}
		feed(flowMod(openflow.FlowDeleteStrict, 1, 0))
		if got := s.Table(); len(got) != 1 || got[k2] == 0 {
			t.Fatalf("v%d: delete-strict left %d entries", version, len(got))
		}
		if c := s.Counts(); c.FlowAdds != 3 || c.FlowDeletes != 1 {
			t.Fatalf("v%d: counts %+v", version, c)
		}
		if len(events) != 4 || events[3].Kind != FlowDelete || events[3].Key != k1 {
			t.Fatalf("v%d: events %+v", version, events)
		}
		// The xid is not part of a flow's identity.
		a, b := flowMod(openflow.FlowAdd, 3, 1), flowMod(openflow.FlowAdd, 3, 1)
		b.Xid = 99
		ka, ba, _ := KeyOf(version, a)
		kb, bb, _ := KeyOf(version, b)
		if ka != kb || ba != bb {
			t.Fatalf("v%d: xid leaked into the key", version)
		}
	}
}

func TestParseFrameRejects(t *testing.T) {
	for _, raw := range [][]byte{nil, {4, 14, 0, 8}, make([]byte, 20)} {
		if _, ok := ParseFrame(raw); ok {
			t.Errorf("ParseFrame(%v) accepted", raw)
		}
	}
	raw, _ := openflow.Codec13{}.Encode(flowMod(openflow.FlowModify, 1, 1))
	if _, ok := ParseFrame(raw); ok {
		t.Error("FlowModify has no table semantics here and must not parse")
	}
	for _, version := range []uint8{openflow.Version10, openflow.Version13} {
		codec, _ := openflow.NewCodec(version)
		frame := []byte("0123456789abcdef")
		raw, err := codec.Encode(&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: 1,
			Actions: []openflow.Action{openflow.Output(2)}, Data: frame})
		if err != nil {
			t.Fatal(err)
		}
		ev, ok := ParseFrame(raw)
		if !ok || ev.Kind != PacketOut || ev.Key != PacketKey(frame) {
			t.Errorf("v%d: packet-out parsed as %+v ok=%v", version, ev, ok)
		}
	}
}

// TestHandshakesRealDriver attaches the sink to the production driver over
// loopback TCP at OF 1.3 and 1.0, pushes a flow through the file system,
// and checks the sink holds exactly what the driver sent — then that a
// packet-in and a packet-out make the round trip.
func TestHandshakesRealDriver(t *testing.T) {
	for _, version := range []uint8{openflow.Version13, openflow.Version10} {
		t.Run(fmt.Sprintf("of%02x", version), func(t *testing.T) {
			y, err := yancfs.New()
			if err != nil {
				t.Fatal(err)
			}
			d := driver.New(y)
			d.MaxVersion = version
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go d.Serve(ln)
			defer d.Close()
			defer ln.Close()

			events := make(chan Event, 16)
			s := &Sink{DPID: 1, OnEvent: func(ev Event) { events <- ev }}
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- s.Serve(c) }()
			p := y.Root()
			waitFor(t, "sw1 connected", func() bool {
				st, _ := p.ReadString("/switches/sw1/status")
				return st == "connected"
			})
			if proto, _ := p.ReadString("/switches/sw1/protocol"); proto != map[uint8]string{openflow.Version10: "openflow10", openflow.Version13: "openflow13"}[version] {
				t.Fatalf("negotiated %q", proto)
			}
			if ports, _ := yancfs.ListPorts(p, "/switches/sw1"); len(ports) != 2 {
				t.Fatalf("driver saw ports %v, want 2", ports)
			}

			spec := benchutil.SampleFlowSpec(5)
			if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f5", spec); err != nil {
				t.Fatal(err)
			}
			key, body, err := KeyOf(version, &openflow.FlowMod{Command: openflow.FlowAdd, Match: spec.Match,
				Priority: spec.Priority, IdleTimeout: spec.IdleTimeout, Actions: spec.Actions})
			if err != nil {
				t.Fatal(err)
			}
			if ev := next(t, events); ev.Kind != FlowAdd || ev.Key != key || ev.Body != body {
				t.Fatalf("sink applied %+v, want add key %x body %x", ev, key, body)
			}
			if err := yancfs.DeleteFlow(p, "/switches/sw1/flows/f5"); err != nil {
				t.Fatal(err)
			}
			if ev := next(t, events); ev.Kind != FlowDelete || ev.Key != key {
				t.Fatalf("sink applied %+v, want delete of %x", ev, key)
			}
			if len(s.Table()) != 0 {
				t.Fatal("table not empty after delete-strict")
			}

			// Packet-in up, packet-out down.
			_, w, err := yancfs.Subscribe(p, "/", "probe")
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			frame := []byte("\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00\x00\x01\x08\x00payload")
			if err := s.SendPacketIn(1, frame); err != nil {
				t.Fatal(err)
			}
			select {
			case <-w.C:
			case <-time.After(5 * time.Second):
				t.Fatal("packet-in never reached the subscriber's buffer")
			}
			if err := p.WriteFile("/switches/sw1/packet_out", append([]byte("out=2 in_port=1\n"), frame...), 0o644); err != nil {
				t.Fatal(err)
			}
			if ev := next(t, events); ev.Kind != PacketOut || ev.Key != PacketKey(frame) {
				t.Fatalf("sink applied %+v, want packet-out of the frame", ev)
			}

			c.Close()
			if err := <-served; err != nil {
				t.Fatalf("Serve: %v", err)
			}
		})
	}
}

func TestDropNthLosesExactlyOne(t *testing.T) {
	s := &Sink{DropNth: 2}
	for i := 0; i < 3; i++ {
		raw, _ := openflow.Codec13{}.Encode(flowMod(openflow.FlowAdd, i, 1))
		ev, _ := ParseFrame(raw)
		s.apply(ev)
	}
	if n := len(s.Table()); n != 2 {
		t.Fatalf("table holds %d entries, want 2", n)
	}
}

func TestHeadroom(t *testing.T) {
	perSec, err := Headroom(20000)
	if err != nil {
		t.Fatal(err)
	}
	if perSec <= 0 {
		t.Fatalf("headroom %v", perSec)
	}
	t.Logf("sink applies %.0f flow-mods/s", perSec)
}

func next(t *testing.T, events <-chan Event) Event {
	t.Helper()
	select {
	case ev := <-events:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no event from the sink within 5s")
		return Event{}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
