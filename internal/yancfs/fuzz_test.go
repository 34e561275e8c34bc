package yancfs

import (
	"testing"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
)

// fuzzSpec builds a flow from fuzzer words, kept to what a flow directory
// can hold: a 12-bit VLAN id, a 3-bit priority code point, prefixes of at
// most 32 bits, and at most one action of each kind (one file per kind),
// an output to the controller carrying the maximum length the file format
// implies.
func fuzzSpec(set uint16, inPort uint32, macs uint64, dlType, vlan uint16, small uint32, nwSrc, nwDst uint32,
	tp uint32, prio, idle, hard uint16, cookie uint64, acts uint16, port uint32, arg uint64) FlowSpec {
	var m openflow.Match
	m.Set = openflow.Field(set) & (openflow.FieldTPDst<<1 - 1)
	m.InPort = inPort
	m.DLSrc = ethernet.MACFromUint64(macs & 0xffffffffffff)
	m.DLDst = ethernet.MACFromUint64(macs >> 16)
	m.DLType = dlType
	m.VLANID = vlan & 0xfff
	m.VLANPCP = uint8(small) & 7
	m.NWTos = uint8(small >> 8)
	m.NWProto = uint8(small >> 16)
	m.NWSrc = ethernet.Prefix{Addr: ethernet.IP4FromUint32(nwSrc), Bits: uint8(small>>24) % 33}
	m.NWDst = ethernet.Prefix{Addr: ethernet.IP4FromUint32(nwDst), Bits: uint8(small>>27) % 33}
	m.TPSrc, m.TPDst = uint16(tp), uint16(tp>>16)
	spec := FlowSpec{Match: m, Priority: prio, IdleTimeout: idle, HardTimeout: hard, Cookie: cookie}
	for t := openflow.ActOutput; t <= openflow.ActSetTPDst; t++ {
		if acts&(1<<t) == 0 {
			continue
		}
		a := openflow.Action{Type: t}
		switch t {
		case openflow.ActOutput:
			a.Port = port
			if port == openflow.PortController {
				a.MaxLen = 0xffff
			}
		case openflow.ActSetVLANID:
			a.VLANID = uint16(arg) & 0xfff
		case openflow.ActSetVLANPCP:
			a.VLANPCP = uint8(arg) & 7
		case openflow.ActSetDLSrc, openflow.ActSetDLDst:
			a.DL = ethernet.MACFromUint64(arg & 0xffffffffffff)
		case openflow.ActSetNWSrc, openflow.ActSetNWDst:
			a.NW = ethernet.IP4FromUint32(uint32(arg >> 16))
		case openflow.ActSetNWTos:
			a.TOS = uint8(arg >> 8)
		case openflow.ActSetTPSrc, openflow.ActSetTPDst:
			a.TP = uint16(arg >> 48)
		}
		spec.Actions = append(spec.Actions, a)
	}
	return spec
}

// sameActions compares action lists as the sets a flow directory holds:
// one file per kind, in no order.
func sameActions(a, b []openflow.Action) bool {
	if len(a) != len(b) {
		return false
	}
	byType := map[openflow.ActionType]openflow.Action{}
	for _, x := range a {
		byType[x.Type] = x
	}
	for _, y := range b {
		if x, ok := byType[y.Type]; !ok || x != y {
			return false
		}
	}
	return true
}

// FuzzFlowDirRoundTrip: any flow the fuzzer builds, written by WriteFlow
// over the flow its complemented words build, reads back the same through
// ReadFlow and through ReadFlowTx, the reader every translator (the
// driver and both views) uses. The first write makes the second a
// rewrite, which has files to take away as well as to write.
func FuzzFlowDirRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint32(0), uint64(0), uint16(0), uint16(0), uint32(0), uint32(0), uint32(0),
		uint32(0), uint16(0), uint16(0), uint16(0), uint64(0), uint16(0), uint32(0), uint64(0))
	f.Add(uint16(0xfff), uint32(7), uint64(0x0a0b0c0d0e0f1011), uint16(0x0800), uint16(4095), uint32(0xffffffff),
		uint32(0x0a000001), uint32(0xc0a80000), uint32(0x00500016), uint16(100), uint16(30), uint16(60),
		uint64(42), uint16(0x7ff), openflow.PortController, uint64(0xfedcba9876543210))
	f.Add(uint16(openflow.FieldNWSrc|openflow.FieldTPDst), uint32(1), uint64(1), uint16(0x86dd), uint16(1),
		uint32(0x18000000), uint32(0x0a010200), uint32(0), uint32(22<<16), uint16(1), uint16(0), uint16(0),
		uint64(0), uint16(1), openflow.PortFlood, uint64(0))
	y, err := New()
	if err != nil {
		f.Fatal(err)
	}
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		f.Fatal(err)
	}
	flow := FlowPath("sw1", "fuzz")
	f.Fuzz(func(t *testing.T, set uint16, inPort uint32, macs uint64, dlType, vlan uint16, small, nwSrc, nwDst,
		tp uint32, prio, idle, hard uint16, cookie uint64, acts uint16, port uint32, arg uint64) {
		if err := p.RemoveAll(flow); err != nil {
			t.Fatal(err)
		}
		prev := fuzzSpec(^set, ^inPort, ^macs, ^dlType, ^vlan, ^small, ^nwSrc, ^nwDst, ^tp, ^prio, ^idle, ^hard, ^cookie, ^acts, ^port, ^arg)
		if _, err := WriteFlow(p, flow, prev); err != nil {
			t.Fatalf("WriteFlow(%+v): %v", prev, err)
		}
		spec := fuzzSpec(set, inPort, macs, dlType, vlan, small, nwSrc, nwDst, tp, prio, idle, hard, cookie, acts, port, arg)
		version, err := WriteFlow(p, flow, spec)
		if err != nil {
			t.Fatalf("WriteFlow(%+v): %v", spec, err)
		}
		same := func(got FlowSpec) bool {
			return got.Match.Equal(spec.Match) && got.Priority == spec.Priority && got.IdleTimeout == spec.IdleTimeout &&
				got.HardTimeout == spec.HardTimeout && got.Cookie == spec.Cookie && sameActions(got.Actions, spec.Actions)
		}
		got, err := ReadFlow(p, flow)
		if err != nil || !same(got) {
			t.Fatalf("ReadFlow = %+v, %v; wrote %+v", got, err, spec)
		}
		var r FlowReader
		var v uint64
		if err := y.VFS().ReadTx(func(tx *vfs.Tx) error {
			v, err = ReadFlowTx(tx, flow, 0, &r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err != nil || v != version || !same(r.Spec) {
			t.Fatalf("ReadFlowTx = v%d %+v, %v; wrote v%d %+v", v, r.Spec, err, version, spec)
		}
	})
}
