package openflow

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"yanc/internal/ethernet"
)

// TestDecodeRandomBytesNeverPanics throws random garbage at both codecs:
// every outcome except a panic is acceptable. A driver reads these bytes
// off the network, so decoder robustness is a security property.
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	codecs := []Codec{Codec10{}, Codec13{}}
	for i := 0; i < 20000; i++ {
		n := r.Intn(200)
		b := make([]byte, n)
		r.Read(b)
		if n > 0 {
			// Bias toward plausible headers so decoding goes deeper.
			switch i % 3 {
			case 0:
				b[0] = Version10
			case 1:
				b[0] = Version13
			}
			if n >= 4 {
				b[2] = byte(n >> 8)
				b[3] = byte(n)
			}
			if n >= 2 {
				b[1] = byte(r.Intn(22)) // message type range
			}
		}
		for _, c := range codecs {
			_, _ = c.Decode(b) // must not panic
		}
	}
}

// TestDecodeMutatedMessagesNeverPanics flips bytes in valid messages —
// the classic structure-aware mutation pass.
func TestDecodeMutatedMessagesNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var m Match
	for f, v := range map[Field]string{
		FieldInPort: "3", FieldDLType: "0x0800", FieldNWProto: "6",
		FieldNWSrc: "10.0.0.0/24", FieldTPDst: "22",
	} {
		if err := m.SetField(f, v); err != nil {
			t.Fatal(err)
		}
	}
	msgs := []Message{
		&Hello{},
		&FlowMod{Match: m, Actions: []Action{Output(1), {Type: ActSetDLDst}}},
		&PacketIn{InPort: 2, Data: make([]byte, 64)},
		&PacketOut{InPort: 1, Actions: []Action{Output(2)}, Data: make([]byte, 32)},
		&StatsReply{Kind: StatsFlow, Flows: []FlowStats{{Match: m, Actions: []Action{Output(1)}}}},
		&StatsReply{Kind: StatsPortDesc, PortDescs: []PortInfo{{No: 1, Name: "p"}}},
		&PortStatus{Port: PortInfo{No: 1, Name: "x"}},
		&FlowRemoved{Match: m},
		&PortMod{PortNo: 1},
	}
	for _, c := range []Codec{Codec10{}, Codec13{}} {
		for _, msg := range msgs {
			msg.SetXID(1)
			enc, err := c.Encode(msg)
			if err != nil {
				continue // some messages are version-specific
			}
			for trial := 0; trial < 500; trial++ {
				mut := append([]byte(nil), enc...)
				// 1-4 random byte flips (never the version byte, so the
				// right codec stays engaged).
				for k := 0; k < 1+r.Intn(4); k++ {
					pos := 1 + r.Intn(len(mut)-1)
					mut[pos] ^= byte(1 << r.Intn(8))
				}
				_, _ = c.Decode(mut)
				// Truncations too.
				cut := r.Intn(len(mut))
				_, _ = c.Decode(mut[:cut])
			}
		}
	}
}

// TestEthernetDecodersNeverPanic drives the packet library with garbage.
func TestEthernetDecodersNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		b := make([]byte, r.Intn(400))
		r.Read(b)
		if f, err := ethernet.DecodeFrame(b); err == nil {
			_, _ = ethernet.DecodeARP(f.Payload)
			if ip, err := ethernet.DecodeIPv4(f.Payload); err == nil {
				_, _ = ethernet.DecodeTCP(ip.Payload)
				_, _ = ethernet.DecodeUDP(ip.Payload)
				_, _ = ethernet.DecodeICMPEcho(ip.Payload)
				_, _ = ethernet.DecodeDHCP(ip.Payload)
			}
			_, _ = ethernet.DecodeLLDP(f.Payload)
		}
		// ExtractFields is the hot dataplane path.
		_, _ = ExtractFields(b, 1)
	}
}

// FuzzPacketOutSpec feeds the packet_out control file's header line and
// frame through both codecs: what ParsePacketOutSpec accepts either fails
// to encode or decodes to the same buffer id, in_port, actions and frame,
// so no packet leaves by a port the writer did not name.
func FuzzPacketOutSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, frame []byte) {
		po, err := ParsePacketOutSpec(spec)
		if err != nil {
			return
		}
		po.Data = frame
		po.Xid = 1
		for _, c := range []Codec{Codec10{}, Codec13{}} {
			b, err := c.Encode(po)
			if err != nil {
				continue
			}
			m, err := c.Decode(b)
			if err != nil {
				t.Fatalf("v%d %q: decode: %v", c.Version(), spec, err)
			}
			got := m.(*PacketOut)
			if got.BufferID != po.BufferID || got.InPort != po.InPort ||
				!reflect.DeepEqual(got.Actions, po.Actions) || !bytes.Equal(got.Data, po.Data) {
				t.Fatalf("v%d %q: decoded buffer_id=%d in_port=%d actions=%v, want buffer_id=%d in_port=%d actions=%v (frame equal: %v)",
					c.Version(), spec, got.BufferID, got.InPort, got.Actions, po.BufferID, po.InPort, po.Actions, bytes.Equal(got.Data, po.Data))
			}
		}
	})
}
