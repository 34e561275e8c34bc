package openflow

import (
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"yanc/internal/ethernet"
)

func mustPrefix(t *testing.T, s string) ethernet.Prefix {
	t.Helper()
	p, err := ethernet.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sampleMatch(t *testing.T) Match {
	t.Helper()
	var m Match
	for f, v := range map[Field]string{
		FieldInPort:  "3",
		FieldDLSrc:   "00:00:00:00:00:01",
		FieldDLDst:   "00:00:00:00:00:02",
		FieldDLType:  "0x0800",
		FieldNWProto: "6",
		FieldNWSrc:   "10.0.0.0/24",
		FieldNWDst:   "10.0.1.5",
		FieldTPSrc:   "1000",
		FieldTPDst:   "22",
	} {
		if err := m.SetField(f, v); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func sampleActions() []Action {
	return []Action{
		{Type: ActSetDLDst, DL: ethernet.MAC{1, 2, 3, 4, 5, 6}},
		{Type: ActSetNWSrc, NW: ethernet.IP4{192, 168, 0, 1}},
		{Type: ActSetNWTos, TOS: 16},
		{Type: ActSetTPDst, TP: 8080},
		{Type: ActOutput, Port: 7},
	}
}

func codecs() []Codec { return []Codec{Codec10{}, Codec13{}} }

func roundTrip(t *testing.T, c Codec, m Message) Message {
	t.Helper()
	b, err := c.Encode(m)
	if err != nil {
		t.Fatalf("%T encode (v%d): %v", m, c.Version(), err)
	}
	got, err := c.Decode(b)
	if err != nil {
		t.Fatalf("%T decode (v%d): %v", m, c.Version(), err)
	}
	return got
}

func TestHelloEchoBarrierRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		h := roundTrip(t, c, &Hello{Header: Header{Xid: 9}})
		if h.Type() != MsgHello || h.XID() != 9 {
			t.Errorf("v%d hello = %+v", c.Version(), h)
		}
		er := roundTrip(t, c, &EchoRequest{Header: Header{Xid: 1}, Data: []byte("ping")}).(*EchoRequest)
		if string(er.Data) != "ping" {
			t.Errorf("v%d echo data = %q", c.Version(), er.Data)
		}
		roundTrip(t, c, &EchoReply{Header: Header{Xid: 1}, Data: []byte("pong")})
		if m := roundTrip(t, c, &BarrierRequest{Header: Header{Xid: 2}}); m.Type() != MsgBarrierRequest {
			t.Errorf("v%d barrier req type = %v", c.Version(), m.Type())
		}
		if m := roundTrip(t, c, &BarrierReply{Header: Header{Xid: 3}}); m.Type() != MsgBarrierReply {
			t.Errorf("v%d barrier rep type = %v", c.Version(), m.Type())
		}
		e := roundTrip(t, c, &Error{Header: Header{Xid: 4}, Code: 0x00030002, Data: []byte{9}}).(*Error)
		if e.Code != 0x00030002 || len(e.Data) != 1 {
			t.Errorf("v%d error = %+v", c.Version(), e)
		}
	}
}

func TestFeaturesRoundTrip(t *testing.T) {
	ports := []PortInfo{
		{No: 1, HWAddr: ethernet.MAC{2, 0, 0, 0, 0, 1}, Name: "eth1", CurrSpeed: 10_000_000},
		{No: 2, HWAddr: ethernet.MAC{2, 0, 0, 0, 0, 2}, Name: "eth2", Config: PortConfigDown, State: PortStateLinkDown},
	}
	fr := &FeaturesReply{
		Header:     Header{Xid: 5},
		DatapathID: 0xabcdef0123456789,
		NBuffers:   256,
		NTables:    4,
		Ports:      ports,
	}
	// OF 1.0 carries ports inline.
	got := roundTrip(t, Codec10{}, fr).(*FeaturesReply)
	if got.DatapathID != fr.DatapathID || got.NBuffers != 256 || got.NTables != 4 {
		t.Errorf("of10 features = %+v", got)
	}
	if !reflect.DeepEqual(got.Ports, ports) {
		t.Errorf("of10 ports = %+v", got.Ports)
	}
	// OF 1.3 drops ports from FEATURES_REPLY; they travel via PortDesc.
	got13 := roundTrip(t, Codec13{}, fr).(*FeaturesReply)
	if got13.DatapathID != fr.DatapathID || len(got13.Ports) != 0 {
		t.Errorf("of13 features = %+v", got13)
	}
	pd := roundTrip(t, Codec13{}, &StatsReply{Header: Header{Xid: 6}, Kind: StatsPortDesc, PortDescs: ports}).(*StatsReply)
	if !reflect.DeepEqual(pd.PortDescs, ports) {
		t.Errorf("of13 port descs = %+v", pd.PortDescs)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		fm := &FlowMod{
			Header:      Header{Xid: 77},
			Command:     FlowAdd,
			Match:       sampleMatch(t),
			Cookie:      0xfeed,
			IdleTimeout: 30,
			HardTimeout: 300,
			Priority:    500,
			BufferID:    NoBuffer,
			OutPort:     PortAny,
			Flags:       FlagSendFlowRem,
			Actions:     sampleActions(),
		}
		got := roundTrip(t, c, fm).(*FlowMod)
		if !got.Match.Equal(fm.Match) {
			t.Errorf("v%d match: got %v want %v", c.Version(), got.Match, fm.Match)
		}
		if got.Cookie != fm.Cookie || got.Priority != 500 || got.IdleTimeout != 30 ||
			got.HardTimeout != 300 || got.Command != FlowAdd || got.Flags != FlagSendFlowRem {
			t.Errorf("v%d flowmod fields = %+v", c.Version(), got)
		}
		if FormatActions(got.Actions) != FormatActions(fm.Actions) {
			t.Errorf("v%d actions: got %v want %v", c.Version(),
				FormatActions(got.Actions), FormatActions(fm.Actions))
		}
	}
}

func TestFlowModVLANAndWildcardRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		var m Match
		if err := m.SetField(FieldDLVLAN, "100"); err != nil {
			t.Fatal(err)
		}
		if err := m.SetField(FieldDLVLANPCP, "5"); err != nil {
			t.Fatal(err)
		}
		if err := m.SetField(FieldNWTos, "32"); err != nil {
			t.Fatal(err)
		}
		fm := &FlowMod{Header: Header{Xid: 1}, Match: m, Actions: []Action{{Type: ActStripVLAN}, Output(PortFlood)}}
		got := roundTrip(t, c, fm).(*FlowMod)
		if !got.Match.Equal(m) {
			t.Errorf("v%d vlan match: got %v want %v", c.Version(), got.Match, m)
		}
		if len(got.Actions) != 2 || got.Actions[0].Type != ActStripVLAN ||
			got.Actions[1].Port != PortFlood {
			t.Errorf("v%d actions = %v", c.Version(), FormatActions(got.Actions))
		}
		// Wildcard-all match survives.
		all := &FlowMod{Header: Header{Xid: 2}, Command: FlowDelete, OutPort: PortAny}
		gotAll := roundTrip(t, c, all).(*FlowMod)
		if !gotAll.Match.IsWildcardAll() {
			t.Errorf("v%d wildcard-all = %v", c.Version(), gotAll.Match)
		}
	}
}

func TestPacketInOutRoundTrip(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range codecs() {
		pi := &PacketIn{
			Header:   Header{Xid: 3},
			BufferID: NoBuffer,
			TotalLen: uint16(len(payload)),
			InPort:   4,
			Reason:   ReasonNoMatch,
			Data:     payload,
		}
		got := roundTrip(t, c, pi).(*PacketIn)
		if got.InPort != 4 || got.Reason != ReasonNoMatch || string(got.Data) != string(payload) {
			t.Errorf("v%d packet_in = %+v", c.Version(), got)
		}
		po := &PacketOut{
			Header:   Header{Xid: 4},
			BufferID: NoBuffer,
			InPort:   PortController,
			Actions:  []Action{Output(2), Output(5)},
			Data:     payload,
		}
		gotPO := roundTrip(t, c, po).(*PacketOut)
		if gotPO.InPort != PortController || len(gotPO.Actions) != 2 ||
			gotPO.Actions[1].Port != 5 || string(gotPO.Data) != string(payload) {
			t.Errorf("v%d packet_out = %+v", c.Version(), gotPO)
		}
	}
}

func TestPortStatusRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		ps := &PortStatus{
			Header: Header{Xid: 8},
			Reason: PortModified,
			Port:   PortInfo{No: 3, Name: "eth3", Config: PortConfigDown, State: PortStateLinkDown},
		}
		got := roundTrip(t, c, ps).(*PortStatus)
		if got.Reason != PortModified || got.Port.No != 3 || got.Port.Name != "eth3" ||
			got.Port.Config != PortConfigDown {
			t.Errorf("v%d port_status = %+v", c.Version(), got)
		}
	}
}

func TestPortModRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		pm := &PortMod{
			Header: Header{Xid: 21},
			PortNo: 4,
			HWAddr: ethernet.MAC{2, 0, 0, 0, 0, 4},
			Config: PortConfigDown,
			Mask:   PortConfigDown,
		}
		got := roundTrip(t, c, pm).(*PortMod)
		if got.PortNo != 4 || got.HWAddr != pm.HWAddr || got.Config != PortConfigDown ||
			got.Mask != PortConfigDown {
			t.Errorf("v%d port_mod = %+v", c.Version(), got)
		}
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		fr := &FlowRemoved{
			Header:      Header{Xid: 10},
			Match:       sampleMatch(t),
			Cookie:      0xc0ffee,
			Priority:    77,
			Reason:      RemovedIdleTimeout,
			DurationSec: 12,
			PacketCount: 100,
			ByteCount:   6400,
		}
		got := roundTrip(t, c, fr).(*FlowRemoved)
		if !got.Match.Equal(fr.Match) || got.Cookie != 0xc0ffee || got.Priority != 77 ||
			got.Reason != RemovedIdleTimeout || got.PacketCount != 100 || got.ByteCount != 6400 {
			t.Errorf("v%d flow_removed = %+v", c.Version(), got)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		req := &StatsRequest{Header: Header{Xid: 11}, Kind: StatsFlow, Match: sampleMatch(t)}
		gotReq := roundTrip(t, c, req).(*StatsRequest)
		if gotReq.Kind != StatsFlow || !gotReq.Match.Equal(req.Match) {
			t.Errorf("v%d stats req = %+v", c.Version(), gotReq)
		}
		rep := &StatsReply{
			Header: Header{Xid: 12},
			Kind:   StatsFlow,
			Flows: []FlowStats{
				{Match: sampleMatch(t), Priority: 5, Cookie: 1, DurationSec: 2, PacketCount: 3, ByteCount: 4, Actions: []Action{Output(1)}},
				{Priority: 0, Actions: []Action{OutputController(128)}},
			},
		}
		gotRep := roundTrip(t, c, rep).(*StatsReply)
		if len(gotRep.Flows) != 2 || !gotRep.Flows[0].Match.Equal(rep.Flows[0].Match) ||
			gotRep.Flows[0].PacketCount != 3 || gotRep.Flows[1].Actions[0].Port != PortController {
			t.Errorf("v%d flow stats = %+v", c.Version(), gotRep.Flows)
		}
		preq := &StatsRequest{Header: Header{Xid: 13}, Kind: StatsPort, Port: PortAny}
		if got := roundTrip(t, c, preq).(*StatsRequest); got.Kind != StatsPort || got.Port != PortAny {
			t.Errorf("v%d port stats req = %+v", c.Version(), got)
		}
		prep := &StatsReply{
			Header: Header{Xid: 14},
			Kind:   StatsPort,
			Ports: []PortStats{
				{PortNo: 1, RxPackets: 10, TxPackets: 20, RxBytes: 30, TxBytes: 40, RxDropped: 1, TxDropped: 2},
			},
		}
		gotP := roundTrip(t, c, prep).(*StatsReply)
		if len(gotP.Ports) != 1 || gotP.Ports[0] != prep.Ports[0] {
			t.Errorf("v%d port stats = %+v", c.Version(), gotP.Ports)
		}
	}
}

func TestMatchParseFormatRoundTrip(t *testing.T) {
	m, err := ParseMatch("dl_type=0x0800,nw_dst=10.0.0.0/8,tp_dst=22,nw_proto=6")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(FieldTPDst) || m.TPDst != 22 || m.NWDst.Bits != 8 {
		t.Errorf("parsed = %+v", m)
	}
	m2, err := ParseMatch(m.String())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(m2) {
		t.Errorf("string round trip: %v vs %v", m, m2)
	}
	if _, err := ParseMatch("bogus=1"); err == nil {
		t.Error("expected error for unknown field")
	}
	if _, err := ParseMatch("no-equals"); err == nil {
		t.Error("expected error for bad element")
	}
	empty, err := ParseMatch("*")
	if err != nil || !empty.IsWildcardAll() {
		t.Errorf("wildcard parse = %+v %v", empty, err)
	}
}

func TestMatchCovers(t *testing.T) {
	wild, _ := ParseMatch("*")
	tcp, _ := ParseMatch("dl_type=0x0800,nw_proto=6")
	ssh, _ := ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=22")
	subnet, _ := ParseMatch("dl_type=0x0800,nw_src=10.0.0.0/8")
	host, _ := ParseMatch("dl_type=0x0800,nw_src=10.1.2.3")

	if !wild.Covers(tcp) || !wild.Covers(ssh) {
		t.Error("wildcard must cover everything")
	}
	if !tcp.Covers(ssh) {
		t.Error("tcp must cover ssh")
	}
	if ssh.Covers(tcp) {
		t.Error("ssh must not cover tcp")
	}
	if !subnet.Covers(host) {
		t.Error("/8 must cover /32 inside it")
	}
	if host.Covers(subnet) {
		t.Error("/32 must not cover /8")
	}
	if !ssh.Covers(ssh) {
		t.Error("covers must be reflexive")
	}
}

func TestMatchesPacket(t *testing.T) {
	frame := ethernet.Frame{
		Dst:  ethernet.MAC{0, 0, 0, 0, 0, 2},
		Src:  ethernet.MAC{0, 0, 0, 0, 0, 1},
		Type: ethernet.TypeIPv4,
		Payload: ethernet.IPv4{
			TTL: 64, Protocol: ethernet.ProtoTCP,
			Src: ethernet.IP4{10, 0, 0, 1}, Dst: ethernet.IP4{10, 0, 1, 5},
			Payload: ethernet.TCP{SrcPort: 1000, DstPort: 22}.Serialize(),
		}.Serialize(),
	}.Serialize()
	pf, err := ExtractFields(frame, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := sampleMatch(t)
	m2 := m
	m2.Set &^= FieldDLSrc | FieldDLDst // sampleMatch uses different MACs
	if err := m2.SetField(FieldDLSrc, "00:00:00:00:00:01"); err != nil {
		t.Fatal(err)
	}
	if err := m2.SetField(FieldDLDst, "00:00:00:00:00:02"); err != nil {
		t.Fatal(err)
	}
	if !m2.MatchesPacket(&pf) {
		t.Errorf("match %v should match packet %+v", m2, pf)
	}
	// Different port misses.
	miss := m2
	miss.TPDst = 23
	if miss.MatchesPacket(&pf) {
		t.Error("tp_dst=23 must not match ssh packet")
	}
	// Wildcard matches.
	var wild Match
	if !wild.MatchesPacket(&pf) {
		t.Error("wildcard must match")
	}
	// In-port mismatch.
	inp := wild
	if err := inp.SetField(FieldInPort, "9"); err != nil {
		t.Fatal(err)
	}
	if inp.MatchesPacket(&pf) {
		t.Error("in_port=9 must not match port 3")
	}
}

func TestExactMatch(t *testing.T) {
	frame := ethernet.Frame{
		Dst:  ethernet.MAC{0, 0, 0, 0, 0, 2},
		Src:  ethernet.MAC{0, 0, 0, 0, 0, 1},
		Type: ethernet.TypeIPv4,
		Payload: ethernet.IPv4{
			TTL: 64, Protocol: ethernet.ProtoUDP,
			Src: ethernet.IP4{10, 0, 0, 1}, Dst: ethernet.IP4{10, 0, 0, 2},
			Payload: ethernet.UDP{SrcPort: 5000, DstPort: 53}.Serialize(),
		}.Serialize(),
	}.Serialize()
	pf, err := ExtractFields(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ExactMatch(pf)
	if !m.MatchesPacket(&pf) {
		t.Error("exact match must match its own packet")
	}
	if !m.Has(FieldTPDst) || m.TPDst != 53 || !m.Has(FieldNWSrc) || m.NWSrc.Bits != 32 {
		t.Errorf("exact = %v", m)
	}
}

func TestActionParsing(t *testing.T) {
	actions, err := ParseActions("out=flood,set_dl_dst=aa:bb:cc:dd:ee:ff,set_tp_dst=80,strip_vlan")
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 4 || actions[0].Port != PortFlood || actions[2].TP != 80 ||
		actions[3].Type != ActStripVLAN {
		t.Errorf("actions = %v", FormatActions(actions))
	}
	round, err := ParseActions(FormatActions(actions))
	if err != nil {
		t.Fatal(err)
	}
	if FormatActions(round) != FormatActions(actions) {
		t.Errorf("round trip = %v", FormatActions(round))
	}
	if _, err := ParseActions("bogus=1"); err == nil {
		t.Error("expected unknown action error")
	}
	if a, err := ParseAction("out", "controller"); err != nil || a.Port != PortController || a.MaxLen == 0 {
		t.Errorf("controller out = %+v %v", a, err)
	}
	// File-name mapping.
	a := Output(3)
	if a.ActionFileName() != "out" || a.ActionFileValue() != "3" {
		t.Errorf("file form = %s %s", a.ActionFileName(), a.ActionFileValue())
	}
	strip := Action{Type: ActStripVLAN}
	if strip.ActionFileName() != "strip_vlan" || strip.ActionFileValue() != "1" {
		t.Errorf("strip file form = %q %q", strip.ActionFileName(), strip.ActionFileValue())
	}
}

func TestApplyActions(t *testing.T) {
	frame := ethernet.Frame{
		Dst:  ethernet.MAC{0, 0, 0, 0, 0, 2},
		Src:  ethernet.MAC{0, 0, 0, 0, 0, 1},
		Type: ethernet.TypeIPv4,
		Payload: ethernet.IPv4{
			TTL: 64, Protocol: ethernet.ProtoTCP,
			Src: ethernet.IP4{10, 0, 0, 1}, Dst: ethernet.IP4{10, 0, 0, 2},
			Payload: ethernet.TCP{SrcPort: 1000, DstPort: 80}.Serialize(),
		}.Serialize(),
	}.Serialize()
	actions := []Action{
		{Type: ActSetDLDst, DL: ethernet.MAC{9, 9, 9, 9, 9, 9}},
		{Type: ActSetNWDst, NW: ethernet.IP4{192, 168, 1, 1}},
		{Type: ActSetTPDst, TP: 8080},
		Output(4),
		Output(5),
	}
	out, ports, err := Apply(actions, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 2 || ports[0] != 4 || ports[1] != 5 {
		t.Errorf("ports = %v", ports)
	}
	pf, err := ExtractFields(out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pf.DLDst != (ethernet.MAC{9, 9, 9, 9, 9, 9}) || pf.NWDst != (ethernet.IP4{192, 168, 1, 1}) || pf.TPDst != 8080 {
		t.Errorf("rewritten = %+v", pf)
	}
	// Output-only action list leaves the frame untouched (same slice).
	same, ports2, err := Apply([]Action{Output(1)}, frame)
	if err != nil || len(ports2) != 1 {
		t.Fatal(err)
	}
	if &same[0] != &frame[0] {
		t.Error("output-only must not copy the frame")
	}
}

func TestConnReadWrite(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)
	ca.SetCodec(Codec10{})
	cb.SetCodec(Codec10{})
	done := make(chan error, 1)
	go func() {
		done <- ca.Write(&FlowMod{Match: Match{}, Priority: 10, Actions: []Action{Output(1)}})
	}()
	msg, err := cb.Read()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	fm, ok := msg.(*FlowMod)
	if !ok || fm.Priority != 10 {
		t.Fatalf("read = %+v", msg)
	}
	if fm.XID() == 0 {
		t.Error("xid must be auto-assigned")
	}
}

func TestHandshake10And13(t *testing.T) {
	for _, swVersion := range []uint8{Version10, Version13} {
		a, b := net.Pipe()
		features := &FeaturesReply{
			DatapathID: 42,
			NBuffers:   64,
			NTables:    2,
			Ports: []PortInfo{
				{No: 1, Name: "p1"},
				{No: 2, Name: "p2"},
			},
		}
		swErr := make(chan error, 1)
		go func() {
			conn := NewConn(b)
			swErr <- conn.HandshakeSwitch(swVersion, features)
		}()
		ctrl := NewConn(a)
		got, err := ctrl.HandshakeController(Version13)
		if err != nil {
			t.Fatalf("v%d controller handshake: %v", swVersion, err)
		}
		if err := <-swErr; err != nil {
			t.Fatalf("v%d switch handshake: %v", swVersion, err)
		}
		if ctrl.Version() != swVersion {
			t.Errorf("negotiated %d, want %d", ctrl.Version(), swVersion)
		}
		if got.DatapathID != 42 || len(got.Ports) != 2 || got.Ports[1].Name != "p2" {
			t.Errorf("v%d features = %+v", swVersion, got)
		}
		a.Close()
		b.Close()
	}
}

func TestMatchQuickRoundTripBothCodecs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	for _, c := range codecs() {
		c := c
		f := func(inPort uint32, dlt uint16, proto uint8, srcIP, dstIP uint32, srcBits, dstBits uint8, tps, tpd uint16, useFields uint16) bool {
			var m Match
			if useFields&1 != 0 {
				m.Set |= FieldInPort
				m.InPort = inPort % 0xff00 // valid physical-port range
			}
			if useFields&2 != 0 {
				m.Set |= FieldDLType
				m.DLType = dlt
			}
			if useFields&4 != 0 {
				m.Set |= FieldNWProto
				m.NWProto = proto
			}
			if useFields&8 != 0 {
				m.Set |= FieldNWSrc
				bits := srcBits%32 + 1
				p := ethernet.Prefix{Addr: ethernet.IP4FromUint32(srcIP), Bits: bits}
				p.Addr = ethernet.IP4FromUint32(srcIP & p.Mask()) // canonical
				m.NWSrc = p
			}
			if useFields&16 != 0 {
				m.Set |= FieldNWDst
				bits := dstBits%32 + 1
				p := ethernet.Prefix{Addr: ethernet.IP4FromUint32(dstIP), Bits: bits}
				p.Addr = ethernet.IP4FromUint32(dstIP & p.Mask())
				m.NWDst = p
			}
			if useFields&32 != 0 {
				m.Set |= FieldTPSrc
				m.TPSrc = tps
			}
			if useFields&64 != 0 {
				m.Set |= FieldTPDst
				m.TPDst = tpd
			}
			fm := &FlowMod{Header: Header{Xid: 1}, Match: m, OutPort: PortAny, BufferID: NoBuffer}
			b, err := c.Encode(fm)
			if err != nil {
				return false
			}
			dec, err := c.Decode(b)
			if err != nil {
				return false
			}
			return dec.(*FlowMod).Match.Equal(m)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("v%d: %v", c.Version(), err)
		}
	}
}

func TestDecodeTruncatedAndBadInput(t *testing.T) {
	for _, c := range codecs() {
		if _, err := c.Decode([]byte{1, 2, 3}); err == nil {
			t.Errorf("v%d short header must fail", c.Version())
		}
		fm := &FlowMod{Header: Header{Xid: 1}, Match: sampleMatch(t), Actions: sampleActions()}
		b, err := c.Encode(fm)
		if err != nil {
			t.Fatal(err)
		}
		// Truncate mid-body but keep the declared length: decode must fail,
		// not panic.
		for cut := 8; cut < len(b); cut += 7 {
			if _, err := c.Decode(b[:cut]); err == nil {
				t.Errorf("v%d truncated at %d must fail", c.Version(), cut)
			}
		}
		// Wrong version byte.
		bad := append([]byte(nil), b...)
		bad[0] = 0x77
		if _, err := c.Decode(bad); err == nil {
			t.Errorf("v%d wrong version must fail", c.Version())
		}
	}
}

func TestNewCodecVersions(t *testing.T) {
	if _, err := NewCodec(Version10); err != nil {
		t.Error(err)
	}
	if _, err := NewCodec(Version13); err != nil {
		t.Error(err)
	}
	if _, err := NewCodec(0x02); err == nil {
		t.Error("OF 1.1 must be rejected")
	}
}

func TestPrefixMaskHelpers(t *testing.T) {
	p := mustPrefix(t, "10.0.0.0/8")
	if maskToBits(p.Mask()) != 8 {
		t.Errorf("maskToBits(/8 mask) = %d", maskToBits(p.Mask()))
	}
	if maskToBits(0xffffffff) != 32 || maskToBits(0) != 0 {
		t.Error("mask edge cases")
	}
}

// randMatch draws a match whose every field holds a value from a small
// alphabet, set or not, so that two draws agree on a field about half
// the time and differences hide in unset fields as often as in set ones.
func randMatch(rng *rand.Rand) Match {
	b := func() byte { return byte(rng.Intn(2)) }
	return Match{
		Set:     Field(rng.Intn(1 << 13)), // the twelve fields and one bit that names none
		InPort:  uint32(b()),
		DLSrc:   ethernet.MAC{b()},
		DLDst:   ethernet.MAC{5: b()},
		DLType:  uint16(b()),
		VLANID:  uint16(b()),
		VLANPCP: b(),
		NWTos:   b(),
		NWProto: b(),
		NWSrc:   ethernet.Prefix{Addr: ethernet.IP4{10, b()}, Bits: 8 * b()},
		NWDst:   ethernet.Prefix{Addr: ethernet.IP4{3: b()}, Bits: 32 - b()},
		TPSrc:   uint16(b()),
		TPDst:   uint16(b()),
	}
}

// TestMatchEqualAgreesWithKey is the property Equal's field-by-field
// comparison must keep: Equal(a, b) exactly when Key(a) == Key(b).
func TestMatchEqualAgreesWithKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	equal := 0
	for i := 0; i < 200_000; i++ {
		a, b := randMatch(rng), randMatch(rng)
		switch rng.Intn(3) {
		case 0: // same fields set, values drawn apart
			b.Set = a.Set
		case 1: // a copy, maybe with one field toggled, maybe one value changed
			b = a
			if rng.Intn(2) == 0 {
				b.Set ^= AllFields[rng.Intn(len(AllFields))]
			}
			b.TPDst ^= uint16(rng.Intn(2))
		}
		want := a.Key() == b.Key()
		if got := a.Equal(b); got != want || b.Equal(a) != want {
			t.Fatalf("Equal = %v, Key equality = %v\n a = %+v\n b = %+v", got, want, a, b)
		}
		if want {
			equal++
		}
	}
	if equal < 10_000 || equal > 190_000 {
		t.Fatalf("%d of 200000 pairs were equal: the generator no longer exercises both outcomes", equal)
	}
}

// TestAllocMatchEqual pins Equal at zero allocations: pushFlow pays it
// on every modify and handleFlowRemoved once per table entry, and it
// used to render both matches to strings.
func TestAllocMatchEqual(t *testing.T) {
	a := Match{}
	for _, f := range AllFields {
		a.Set |= f
	}
	b := a
	if allocs := testing.AllocsPerRun(100, func() {
		if !a.Equal(b) {
			t.Fatal("equal matches compare unequal")
		}
	}); allocs != 0 {
		t.Fatalf("Match.Equal allocates %.0f objects, want 0", allocs)
	}
}
