// Package ofsink is a cbench-style emulated OpenFlow switch for the yanc
// benchmark: it handshakes like a datapath (openflow.Conn.HandshakeSwitch),
// answers echo, barrier, features and stats requests, and does O(1) work
// per flow-mod or packet-out — one timestamp and one hash-map update keyed
// by a 128-bit hash of (match, priority). It never sorts or scans, so the
// harness stays an order of magnitude cheaper than any layer it measures
// (Headroom checks that).
//
// Flow-mods and packet-outs are read straight off their wire layout; only
// the rare control messages go through the codec.
package ofsink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
)

// Key identifies a flow entry (hash of match bytes and priority) or a
// packet-out (hash of the released frame).
type Key [16]byte

// Kind classifies an Event.
type Kind uint8

const (
	FlowAdd Kind = iota
	FlowDelete
	PacketOut
)

// Event is one flow-mod or packet-out as the sink applied it.
type Event struct {
	Kind Kind
	Key  Key
	// Body hashes what the entry does: cookie, timeouts and actions of a
	// flow-mod, in_port and actions of a packet-out. Two flow-adds with
	// the same Key and Body leave the same switch state.
	Body uint64
	At   time.Time
	Size int // frame bytes
}

// Wire message types the sink reads raw; OF 1.0 and 1.3 share both.
const (
	wirePacketOut = 13
	wireFlowMod   = 14
)

// ParseFrame extracts the Event (minus At) from a raw flow-mod or
// packet-out frame of either protocol version. ok is false for any other
// message, for flow-mod commands other than add and delete-strict, and for
// truncated frames.
func ParseFrame(b []byte) (ev Event, ok bool) {
	if len(b) < 8 {
		return ev, false
	}
	ev.Size = len(b)
	v13 := b[0] == openflow.Version13
	switch b[1] {
	case wireFlowMod:
		var cmd uint16
		var match, prio []byte
		body := uint64(fnvOffset64)
		if v13 {
			if len(b) < 56 {
				return ev, false
			}
			mlen := (int(binary.BigEndian.Uint16(b[50:52])) + 7) &^ 7
			if mlen < 8 || len(b) < 48+mlen {
				return ev, false
			}
			cmd = uint16(b[25])
			match, prio = b[48:48+mlen], b[30:32]
			// cookie, idle+hard timeouts, instructions
			body = fnv64a(fnv64a(fnv64a(body, b[8:16]), b[26:30]), b[48+mlen:])
		} else {
			if len(b) < 72 {
				return ev, false
			}
			cmd = binary.BigEndian.Uint16(b[56:58])
			match, prio = b[8:48], b[62:64]
			// cookie, idle+hard timeouts, actions
			body = fnv64a(fnv64a(fnv64a(body, b[48:56]), b[58:62]), b[72:])
		}
		switch cmd {
		case openflow.FlowAdd:
			ev.Kind = FlowAdd
		case openflow.FlowDeleteStrict:
			ev.Kind = FlowDelete
		default:
			return ev, false
		}
		ev.Key = hash128(match, prio)
		ev.Body = body
		return ev, true
	case wirePacketOut:
		// OF 1.0: buffer_id, in_port(2), actions_len; OF 1.3 widens
		// in_port to 4 bytes and pads the fixed part to 24.
		hdr, alenAt := 16, 14
		if v13 {
			hdr, alenAt = 24, 16
		}
		if len(b) < hdr {
			return ev, false
		}
		alen := int(binary.BigEndian.Uint16(b[alenAt : alenAt+2]))
		if len(b) < hdr+alen {
			return ev, false
		}
		ev.Kind = PacketOut
		ev.Key = hash128(b[hdr+alen:], nil)
		ev.Body = fnv64a(fnvOffset64, b[12:hdr+alen]) // in_port and actions
		return ev, true
	}
	return ev, false
}

func hash128(a, b []byte) (k Key) {
	h := fnv.New128a()
	h.Write(a)
	h.Write(b)
	h.Sum(k[:0])
	return k
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a folds b into the running FNV-1a state h; chaining calls hashes
// the concatenation without building it.
func fnv64a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// KeyOf returns the Key and Body a FlowAdd for (match, priority, …) has on
// a connection speaking version — what the verifier expects the sink to
// hold for a flow directory.
func KeyOf(version uint8, fm *openflow.FlowMod) (Key, uint64, error) {
	codec, err := openflow.NewCodec(version)
	if err != nil {
		return Key{}, 0, err
	}
	raw, err := codec.Encode(fm)
	if err != nil {
		return Key{}, 0, err
	}
	ev, ok := ParseFrame(raw)
	if !ok {
		return Key{}, 0, fmt.Errorf("ofsink: flow-mod command %d has no key", fm.Command)
	}
	return ev.Key, ev.Body, nil
}

// PacketKey returns the Key a packet-out releasing frame carries.
func PacketKey(frame []byte) Key { return hash128(frame, nil) }

// Counts are the sink's message totals.
type Counts struct {
	FlowAdds, FlowDeletes, PacketOuts uint64
	FlowModBytes                      uint64
}

// Sink is one emulated switch. Set the exported fields before Serve.
type Sink struct {
	DPID    uint64
	Version uint8 // highest OpenFlow version offered (default 1.3)
	Ports   int   // port count reported in features (default 2)

	// OnEvent, when set, observes every applied flow-mod and packet-out
	// on the connection's reader goroutine. Keep it O(1).
	OnEvent func(Event)

	// DropNth, when non-zero, makes the sink silently lose its Nth
	// flow-mod (neither applied nor reported): the fault the verifier
	// must catch.
	DropNth uint64

	conn atomic.Pointer[openflow.Conn]

	mu    sync.Mutex
	table map[Key]uint64 // flow Key -> Body of the latest add

	seen         uint64 // flow-mods read, reader goroutine only
	adds, dels   atomic.Uint64
	pouts, bytes atomic.Uint64
}

func (s *Sink) features() *openflow.FeaturesReply {
	n := s.Ports
	if n <= 0 {
		n = 2
	}
	f := &openflow.FeaturesReply{DatapathID: s.DPID, NTables: 1}
	for i := 1; i <= n; i++ {
		f.Ports = append(f.Ports, openflow.PortInfo{
			No:     uint32(i),
			HWAddr: ethernet.MACFromUint64(s.DPID<<8 | uint64(i)),
			Name:   fmt.Sprintf("p%d", i),
		})
	}
	return f
}

// Serve handshakes as a switch on rw and processes messages until the
// connection closes. A clean close returns nil.
func (s *Sink) Serve(rw io.ReadWriter) error {
	version := s.Version
	if version == 0 {
		version = openflow.Version13
	}
	features := s.features()
	conn := openflow.NewConn(rw)
	if err := conn.HandshakeSwitch(version, features); err != nil {
		return err
	}
	s.conn.Store(conn)
	for {
		raw, err := conn.ReadRaw()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return err
		}
		if ev, ok := ParseFrame(raw); ok {
			s.apply(ev)
			continue
		}
		if raw[1] == wireFlowMod || raw[1] == wirePacketOut {
			continue // a command the table does not model
		}
		msg, err := conn.Decode(raw)
		if err != nil {
			return err
		}
		if err := s.answer(conn, msg, features); err != nil {
			return err
		}
	}
}

func (s *Sink) apply(ev Event) {
	ev.At = time.Now()
	if ev.Kind == PacketOut {
		s.pouts.Add(1)
	} else {
		s.seen++
		if s.seen == s.DropNth {
			return
		}
		s.bytes.Add(uint64(ev.Size))
		s.mu.Lock()
		if s.table == nil {
			s.table = make(map[Key]uint64)
		}
		if ev.Kind == FlowAdd {
			s.table[ev.Key] = ev.Body
			s.adds.Add(1)
		} else {
			delete(s.table, ev.Key)
			s.dels.Add(1)
		}
		s.mu.Unlock()
	}
	if s.OnEvent != nil {
		s.OnEvent(ev)
	}
}

// answer replies to the control messages a driver sends besides flow-mods
// and packet-outs. Stats replies are empty: the sink keeps no counters.
func (s *Sink) answer(conn *openflow.Conn, msg openflow.Message, features *openflow.FeaturesReply) error {
	switch m := msg.(type) {
	case *openflow.EchoRequest:
		return conn.Write(&openflow.EchoReply{Header: openflow.Header{Xid: m.Xid}, Data: m.Data})
	case *openflow.BarrierRequest:
		return conn.Write(&openflow.BarrierReply{Header: openflow.Header{Xid: m.Xid}})
	case *openflow.FeaturesRequest:
		reply := *features
		reply.Xid = m.Xid
		return conn.Write(&reply)
	case *openflow.StatsRequest:
		rep := &openflow.StatsReply{Header: openflow.Header{Xid: m.Xid}, Kind: m.Kind}
		if m.Kind == openflow.StatsPortDesc {
			rep.PortDescs = features.Ports
		}
		return conn.Write(rep)
	}
	return nil // echo replies, port-mods, hello retransmits
}

// SendPacketIn emits an unbuffered table-miss packet-in carrying frame.
// It fails until Serve has finished the handshake.
func (s *Sink) SendPacketIn(inPort uint32, frame []byte) error {
	conn := s.conn.Load()
	if conn == nil {
		return errors.New("ofsink: not connected")
	}
	return conn.Write(&openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		TotalLen: uint16(len(frame)),
		InPort:   inPort,
		Reason:   openflow.ReasonNoMatch,
		Data:     frame,
	})
}

// Table returns a copy of the flow table: Key -> Body of the entry.
func (s *Sink) Table() map[Key]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Key]uint64, len(s.table))
	for k, v := range s.table {
		out[k] = v
	}
	return out
}

// Counts snapshots the message totals.
func (s *Sink) Counts() Counts {
	return Counts{
		FlowAdds:     s.adds.Load(),
		FlowDeletes:  s.dels.Load(),
		PacketOuts:   s.pouts.Load(),
		FlowModBytes: s.bytes.Load(),
	}
}

// Headroom measures the sink's ceiling: it feeds n pre-encoded FlowAdd
// frames over loopback TCP through a real controller-side handshake and
// returns flow-mods applied per second. The benchmark fails a run whose
// capacity is within 10× of this, because then the sink, not yanc, would
// be what is measured.
func Headroom(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	s := &Sink{DPID: 1}
	served := make(chan error, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		served <- s.Serve(c)
	}()
	c, err := ln.Accept()
	if err != nil {
		return 0, err
	}
	defer c.Close() // ends Serve on every error path; closing twice is harmless
	conn := openflow.NewConn(c)
	if _, err := conn.HandshakeController(openflow.Version13); err != nil {
		return 0, err
	}
	var frames []byte
	for i := 0; i < n; i++ {
		var m openflow.Match
		m.Set = openflow.FieldDLType | openflow.FieldNWSrc
		m.DLType = uint16(ethernet.TypeIPv4)
		m.NWSrc = ethernet.Prefix{Addr: ethernet.IP4FromUint32(uint32(i)), Bits: 32}
		raw, err := openflow.Codec13{}.Encode(&openflow.FlowMod{
			Header: openflow.Header{Xid: uint32(i + 1)}, Command: openflow.FlowAdd, Match: m, Priority: 100,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortAny,
			Actions: []openflow.Action{openflow.Output(1)},
		})
		if err != nil {
			return 0, err
		}
		frames = append(frames, raw...)
	}
	start := time.Now()
	if _, err := c.Write(frames); err != nil {
		return 0, err
	}
	// The barrier reply trails every frame before it.
	if err := conn.Write(&openflow.BarrierRequest{}); err != nil {
		return 0, err
	}
	for {
		msg, err := conn.Read()
		if err != nil {
			return 0, err
		}
		if _, ok := msg.(*openflow.BarrierReply); ok {
			break
		}
	}
	elapsed := time.Since(start)
	c.Close()
	if err := <-served; err != nil {
		return 0, err
	}
	if got := s.Counts().FlowAdds; got != uint64(n) {
		return 0, fmt.Errorf("ofsink: headroom applied %d of %d flow-mods", got, n)
	}
	return float64(n) / elapsed.Seconds(), nil
}
