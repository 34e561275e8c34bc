package openflow

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// countingWriter records each Write it is handed.
type countingWriter struct {
	writes [][]byte
	err    error
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (w *countingWriter) Read([]byte) (int, error) { return 0, io.EOF }

// TestAppendEncodeExtends: appending a message to a buffer that already
// holds others yields exactly those bytes followed by the message's own
// encoding, lengths and all, for both codecs.
func TestAppendEncodeExtends(t *testing.T) {
	msgs := func() []Message {
		return []Message{
			&FlowMod{Command: FlowAdd, Match: sampleMatch(t), Priority: 9, Cookie: 77, IdleTimeout: 5, BufferID: NoBuffer, OutPort: PortAny, Actions: sampleActions()},
			&FlowMod{Command: FlowDeleteStrict, Match: sampleMatch(t), Priority: 9, BufferID: NoBuffer, OutPort: PortAny},
			&PacketOut{BufferID: NoBuffer, InPort: 3, Actions: sampleActions(), Data: []byte("frame bytes")},
			&EchoRequest{Data: []byte("ping")},
			&BarrierRequest{},
		}
	}
	for _, c := range codecs() {
		var buf, want []byte
		for i, m := range msgs() {
			m.SetXID(uint32(i + 1))
			one, err := c.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, one...)
			if buf, err = c.AppendEncode(buf, m); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("v%d: after %T the buffer is not the concatenation of the encodings", c.Version(), m)
			}
			got, err := c.Decode(one)
			if err != nil || got.Type() != m.Type() {
				t.Fatalf("v%d: %T does not decode back: %v", c.Version(), m, err)
			}
		}
		before := len(buf)
		if out, err := c.AppendEncode(buf, &unknownMessage{}); err == nil || len(out) != before {
			t.Fatalf("v%d: a message that cannot be encoded changed the buffer (%v)", c.Version(), err)
		}
	}
}

type unknownMessage struct{ Header }

func (*unknownMessage) Type() MsgType { return MsgType(250) }

// TestWriteRawOneWrite: messages a sender encoded into its own buffer
// leave in one write, whole and in order, and a Write that follows lands
// behind them.
func TestWriteRawOneWrite(t *testing.T) {
	w := &countingWriter{}
	c := NewConn(w)
	c.SetCodec(Codec13{})
	var buf []byte
	for i := 0; i < 4; i++ {
		fm := &FlowMod{Command: FlowAdd, Priority: uint16(i), BufferID: NoBuffer, OutPort: PortAny, Actions: []Action{Output(1)}}
		fm.SetXID(c.NewXID())
		var err error
		if buf, err = c.Codec().AppendEncode(buf, fm); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteRaw(buf); err != nil || len(w.writes) != 1 {
		t.Fatalf("4 encoded messages took %d writes (%v)", len(w.writes), err)
	}
	if err := c.Write(&BarrierRequest{}); err != nil || len(w.writes) != 2 {
		t.Fatalf("Write after WriteRaw: %d writes, %v", len(w.writes), err)
	}
	peer := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(bytes.Join(w.writes, nil)), io.Discard})
	peer.SetCodec(Codec13{})
	var xids []uint32
	for i := 0; i < 5; i++ {
		m, err := peer.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fm, ok := m.(*FlowMod); ok != (i < 4) || (ok && fm.Priority != uint16(i)) {
			t.Fatalf("frame %d = %+v", i, m)
		}
		xids = append(xids, m.XID())
	}
	for i := 1; i < len(xids); i++ {
		if xids[i] == 0 || xids[i] == xids[i-1] {
			t.Fatalf("xids = %v", xids)
		}
	}
	boom := errors.New("peer went away")
	w.err = boom
	if err := c.WriteRaw(buf); !errors.Is(err, boom) {
		t.Fatalf("WriteRaw to a dead peer = %v", err)
	}
}
