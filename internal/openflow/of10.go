package openflow

import (
	"encoding/binary"
	"fmt"
)

// Protocol version bytes.
const (
	Version10 uint8 = 0x01
	Version13 uint8 = 0x04
)

// ErrBadMessage reports an undecodable wire message.
var ErrBadMessage = fmt.Errorf("openflow: bad message")

// Codec encodes and decodes whole OpenFlow packets (header included) for
// one protocol version. A yanc driver instantiates the codec matching the
// protocol its switches speak (§4.1).
type Codec interface {
	Version() uint8
	Encode(m Message) ([]byte, error)
	// AppendEncode appends m's wire form to dst and returns the extended
	// slice: what a sender that batches messages into one buffer uses.
	AppendEncode(dst []byte, m Message) ([]byte, error)
	Decode(b []byte) (Message, error)
}

// NewCodec returns the codec for a protocol version byte.
func NewCodec(version uint8) (Codec, error) {
	switch version {
	case Version10:
		return Codec10{}, nil
	case Version13:
		return Codec13{}, nil
	default:
		return nil, fmt.Errorf("%w: unsupported version 0x%02x", ErrBadMessage, version)
	}
}

// OF 1.0 wire message types.
const (
	of10Hello          = 0
	of10Error          = 1
	of10EchoRequest    = 2
	of10EchoReply      = 3
	of10FeaturesReq    = 5
	of10FeaturesRep    = 6
	of10PacketIn       = 10
	of10FlowRemoved    = 11
	of10PortStatus     = 12
	of10PacketOut      = 13
	of10FlowMod        = 14
	of10PortMod        = 15
	of10StatsRequest   = 16
	of10StatsReply     = 17
	of10BarrierRequest = 18
	of10BarrierReply   = 19
)

// OF 1.0 wildcard bits.
const (
	fw10InPort     = 1 << 0
	fw10DLVLAN     = 1 << 1
	fw10DLSrc      = 1 << 2
	fw10DLDst      = 1 << 3
	fw10DLType     = 1 << 4
	fw10NWProto    = 1 << 5
	fw10TPSrc      = 1 << 6
	fw10TPDst      = 1 << 7
	fw10NWSrcShift = 8
	fw10NWDstShift = 14
	fw10DLVLANPCP  = 1 << 20
	fw10NWTos      = 1 << 21
	fw10All        = (1 << 22) - 1
)

// Codec10 is the OpenFlow 1.0 wire codec.
type Codec10 struct{}

// Version implements Codec.
func (Codec10) Version() uint8 { return Version10 }

func putHeader(dst []byte, version, typ uint8, xid uint32) []byte {
	dst = append(dst, version, typ, 0, 0) // length patched at the end
	return binary.BigEndian.AppendUint32(dst, xid)
}

// patchLength writes the length of the message that begins at b[start]
// and runs to the end of b into its header.
func patchLength(start int, b []byte) []byte {
	binary.BigEndian.PutUint16(b[start+2:start+4], uint16(len(b)-start))
	return b
}

func port10(p uint32) uint16 { return uint16(p & 0xffff) }

func port10Up(v uint16) uint32 {
	if v >= 0xff00 {
		return uint32(v) | 0xffff0000
	}
	return uint32(v)
}

// appendMatch10 serializes the 40-byte ofp_match.
func appendMatch10(dst []byte, m *Match) []byte {
	wc := uint32(fw10All)
	clear := func(bit uint32) { wc &^= bit }
	if m.Has(FieldInPort) {
		clear(fw10InPort)
	}
	if m.Has(FieldDLVLAN) {
		clear(fw10DLVLAN)
	}
	if m.Has(FieldDLSrc) {
		clear(fw10DLSrc)
	}
	if m.Has(FieldDLDst) {
		clear(fw10DLDst)
	}
	if m.Has(FieldDLType) {
		clear(fw10DLType)
	}
	if m.Has(FieldNWProto) {
		clear(fw10NWProto)
	}
	if m.Has(FieldTPSrc) {
		clear(fw10TPSrc)
	}
	if m.Has(FieldTPDst) {
		clear(fw10TPDst)
	}
	if m.Has(FieldDLVLANPCP) {
		clear(fw10DLVLANPCP)
	}
	if m.Has(FieldNWTos) {
		clear(fw10NWTos)
	}
	// nw_src/nw_dst wildcard = number of low bits ignored (0 = exact, >=32
	// = fully wildcarded).
	wc &^= uint32(0x3f) << fw10NWSrcShift
	srcIgnore := 32
	if m.Has(FieldNWSrc) {
		srcIgnore = 32 - int(m.NWSrc.Bits)
	}
	wc |= uint32(srcIgnore&0x3f) << fw10NWSrcShift
	wc &^= uint32(0x3f) << fw10NWDstShift
	dstIgnore := 32
	if m.Has(FieldNWDst) {
		dstIgnore = 32 - int(m.NWDst.Bits)
	}
	wc |= uint32(dstIgnore&0x3f) << fw10NWDstShift

	dst = binary.BigEndian.AppendUint32(dst, wc)
	dst = binary.BigEndian.AppendUint16(dst, port10(m.InPort))
	dst = append(dst, m.DLSrc[:]...)
	dst = append(dst, m.DLDst[:]...)
	dst = binary.BigEndian.AppendUint16(dst, m.VLANID)
	dst = append(dst, m.VLANPCP, 0)
	dst = binary.BigEndian.AppendUint16(dst, m.DLType)
	dst = append(dst, m.NWTos, m.NWProto, 0, 0)
	dst = append(dst, m.NWSrc.Addr[:]...)
	dst = append(dst, m.NWDst.Addr[:]...)
	dst = binary.BigEndian.AppendUint16(dst, m.TPSrc)
	dst = binary.BigEndian.AppendUint16(dst, m.TPDst)
	return dst
}

func decodeMatch10(b []byte) (Match, error) {
	var m Match
	if len(b) < 40 {
		return m, fmt.Errorf("%w: match %d bytes", ErrBadMessage, len(b))
	}
	wc := binary.BigEndian.Uint32(b[0:4])
	set := func(bit uint32, f Field) {
		if wc&bit == 0 {
			m.Set |= f
		}
	}
	set(fw10InPort, FieldInPort)
	set(fw10DLVLAN, FieldDLVLAN)
	set(fw10DLSrc, FieldDLSrc)
	set(fw10DLDst, FieldDLDst)
	set(fw10DLType, FieldDLType)
	set(fw10NWProto, FieldNWProto)
	set(fw10TPSrc, FieldTPSrc)
	set(fw10TPDst, FieldTPDst)
	set(fw10DLVLANPCP, FieldDLVLANPCP)
	set(fw10NWTos, FieldNWTos)
	m.InPort = port10Up(binary.BigEndian.Uint16(b[4:6]))
	copy(m.DLSrc[:], b[6:12])
	copy(m.DLDst[:], b[12:18])
	m.VLANID = binary.BigEndian.Uint16(b[18:20])
	m.VLANPCP = b[20]
	m.DLType = binary.BigEndian.Uint16(b[22:24])
	m.NWTos = b[24]
	m.NWProto = b[25]
	srcIgnore := int(wc >> fw10NWSrcShift & 0x3f)
	if srcIgnore < 32 {
		m.Set |= FieldNWSrc
		copy(m.NWSrc.Addr[:], b[28:32])
		m.NWSrc.Bits = uint8(32 - srcIgnore)
	}
	dstIgnore := int(wc >> fw10NWDstShift & 0x3f)
	if dstIgnore < 32 {
		m.Set |= FieldNWDst
		copy(m.NWDst.Addr[:], b[32:36])
		m.NWDst.Bits = uint8(32 - dstIgnore)
	}
	m.TPSrc = binary.BigEndian.Uint16(b[36:38])
	m.TPDst = binary.BigEndian.Uint16(b[38:40])
	return m, nil
}

// OF 1.0 action type codes.
const (
	at10Output     = 0
	at10SetVLANVID = 1
	at10SetVLANPCP = 2
	at10StripVLAN  = 3
	at10SetDLSrc   = 4
	at10SetDLDst   = 5
	at10SetNWSrc   = 6
	at10SetNWDst   = 7
	at10SetNWTos   = 8
	at10SetTPSrc   = 9
	at10SetTPDst   = 10
)

func appendActions10(dst []byte, actions []Action) []byte {
	for _, a := range actions {
		switch a.Type {
		case ActOutput:
			dst = binary.BigEndian.AppendUint16(dst, at10Output)
			dst = binary.BigEndian.AppendUint16(dst, 8)
			dst = binary.BigEndian.AppendUint16(dst, port10(a.Port))
			dst = binary.BigEndian.AppendUint16(dst, a.MaxLen)
		case ActSetVLANID:
			dst = binary.BigEndian.AppendUint16(dst, at10SetVLANVID)
			dst = binary.BigEndian.AppendUint16(dst, 8)
			dst = binary.BigEndian.AppendUint16(dst, a.VLANID)
			dst = append(dst, 0, 0)
		case ActSetVLANPCP:
			dst = binary.BigEndian.AppendUint16(dst, at10SetVLANPCP)
			dst = binary.BigEndian.AppendUint16(dst, 8)
			dst = append(dst, a.VLANPCP, 0, 0, 0)
		case ActStripVLAN:
			dst = binary.BigEndian.AppendUint16(dst, at10StripVLAN)
			dst = binary.BigEndian.AppendUint16(dst, 8)
			dst = append(dst, 0, 0, 0, 0)
		case ActSetDLSrc, ActSetDLDst:
			code := uint16(at10SetDLSrc)
			if a.Type == ActSetDLDst {
				code = at10SetDLDst
			}
			dst = binary.BigEndian.AppendUint16(dst, code)
			dst = binary.BigEndian.AppendUint16(dst, 16)
			dst = append(dst, a.DL[:]...)
			dst = append(dst, 0, 0, 0, 0, 0, 0)
		case ActSetNWSrc, ActSetNWDst:
			code := uint16(at10SetNWSrc)
			if a.Type == ActSetNWDst {
				code = at10SetNWDst
			}
			dst = binary.BigEndian.AppendUint16(dst, code)
			dst = binary.BigEndian.AppendUint16(dst, 8)
			dst = append(dst, a.NW[:]...)
		case ActSetNWTos:
			dst = binary.BigEndian.AppendUint16(dst, at10SetNWTos)
			dst = binary.BigEndian.AppendUint16(dst, 8)
			dst = append(dst, a.TOS, 0, 0, 0)
		case ActSetTPSrc, ActSetTPDst:
			code := uint16(at10SetTPSrc)
			if a.Type == ActSetTPDst {
				code = at10SetTPDst
			}
			dst = binary.BigEndian.AppendUint16(dst, code)
			dst = binary.BigEndian.AppendUint16(dst, 8)
			dst = binary.BigEndian.AppendUint16(dst, a.TP)
			dst = append(dst, 0, 0)
		}
	}
	return dst
}

func decodeActions10(b []byte) ([]Action, error) {
	var out []Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: action header", ErrBadMessage)
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		length := int(binary.BigEndian.Uint16(b[2:4]))
		if length < 8 || length > len(b) {
			return nil, fmt.Errorf("%w: action length %d", ErrBadMessage, length)
		}
		body := b[4:length]
		b = b[length:]
		var a Action
		switch typ {
		case at10Output:
			a = Action{Type: ActOutput, Port: port10Up(binary.BigEndian.Uint16(body[0:2])), MaxLen: binary.BigEndian.Uint16(body[2:4])}
		case at10SetVLANVID:
			a = Action{Type: ActSetVLANID, VLANID: binary.BigEndian.Uint16(body[0:2])}
		case at10SetVLANPCP:
			a = Action{Type: ActSetVLANPCP, VLANPCP: body[0]}
		case at10StripVLAN:
			a = Action{Type: ActStripVLAN}
		case at10SetDLSrc, at10SetDLDst:
			t := ActSetDLSrc
			if typ == at10SetDLDst {
				t = ActSetDLDst
			}
			a = Action{Type: t}
			copy(a.DL[:], body[0:6])
		case at10SetNWSrc, at10SetNWDst:
			t := ActSetNWSrc
			if typ == at10SetNWDst {
				t = ActSetNWDst
			}
			a = Action{Type: t}
			copy(a.NW[:], body[0:4])
		case at10SetNWTos:
			a = Action{Type: ActSetNWTos, TOS: body[0]}
		case at10SetTPSrc, at10SetTPDst:
			t := ActSetTPSrc
			if typ == at10SetTPDst {
				t = ActSetTPDst
			}
			a = Action{Type: t, TP: binary.BigEndian.Uint16(body[0:2])}
		default:
			return nil, fmt.Errorf("%w: action type %d", ErrBadMessage, typ)
		}
		out = append(out, a)
	}
	return out, nil
}

func appendPhyPort10(dst []byte, p PortInfo) []byte {
	dst = binary.BigEndian.AppendUint16(dst, port10(p.No))
	dst = append(dst, p.HWAddr[:]...)
	var name [16]byte
	copy(name[:], p.Name)
	dst = append(dst, name[:]...)
	dst = binary.BigEndian.AppendUint32(dst, p.Config)
	dst = binary.BigEndian.AppendUint32(dst, p.State)
	dst = binary.BigEndian.AppendUint32(dst, p.CurrSpeed) // curr feature word reused for speed
	dst = append(dst, make([]byte, 12)...)                // advertised/supported/peer
	return dst
}

func decodePhyPort10(b []byte) (PortInfo, error) {
	var p PortInfo
	if len(b) < 48 {
		return p, fmt.Errorf("%w: phy port %d bytes", ErrBadMessage, len(b))
	}
	p.No = port10Up(binary.BigEndian.Uint16(b[0:2]))
	copy(p.HWAddr[:], b[2:8])
	p.Name = cString(b[8:24])
	p.Config = binary.BigEndian.Uint32(b[24:28])
	p.State = binary.BigEndian.Uint32(b[28:32])
	p.CurrSpeed = binary.BigEndian.Uint32(b[32:36])
	return p, nil
}

func cString(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// Encode implements Codec.
func (c Codec10) Encode(m Message) ([]byte, error) {
	b, err := c.AppendEncode(make([]byte, 0, 64), m)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendEncode implements Codec.
func (c Codec10) AppendEncode(dst []byte, m Message) ([]byte, error) {
	xid := m.XID()
	start := len(dst)
	hdr := func(typ uint8) []byte { return putHeader(dst, Version10, typ, xid) }
	switch msg := m.(type) {
	case *Hello:
		return patchLength(start, hdr(of10Hello)), nil
	case *Error:
		b := hdr(of10Error)
		b = binary.BigEndian.AppendUint16(b, uint16(msg.Code>>16))
		b = binary.BigEndian.AppendUint16(b, uint16(msg.Code))
		b = append(b, msg.Data...)
		return patchLength(start, b), nil
	case *EchoRequest:
		return patchLength(start, append(hdr(of10EchoRequest), msg.Data...)), nil
	case *EchoReply:
		return patchLength(start, append(hdr(of10EchoReply), msg.Data...)), nil
	case *FeaturesRequest:
		return patchLength(start, hdr(of10FeaturesReq)), nil
	case *FeaturesReply:
		b := hdr(of10FeaturesRep)
		b = binary.BigEndian.AppendUint64(b, msg.DatapathID)
		b = binary.BigEndian.AppendUint32(b, msg.NBuffers)
		b = append(b, msg.NTables, 0, 0, 0)
		b = binary.BigEndian.AppendUint32(b, msg.Capabilities)
		b = binary.BigEndian.AppendUint32(b, 0xfff) // supported actions
		for _, p := range msg.Ports {
			b = appendPhyPort10(b, p)
		}
		return patchLength(start, b), nil
	case *PacketIn:
		b := hdr(of10PacketIn)
		b = binary.BigEndian.AppendUint32(b, msg.BufferID)
		b = binary.BigEndian.AppendUint16(b, msg.TotalLen)
		b = binary.BigEndian.AppendUint16(b, port10(msg.InPort))
		b = append(b, msg.Reason, 0)
		b = append(b, msg.Data...)
		return patchLength(start, b), nil
	case *FlowRemoved:
		b := hdr(of10FlowRemoved)
		b = appendMatch10(b, &msg.Match)
		b = binary.BigEndian.AppendUint64(b, msg.Cookie)
		b = binary.BigEndian.AppendUint16(b, msg.Priority)
		b = append(b, msg.Reason, 0)
		b = binary.BigEndian.AppendUint32(b, msg.DurationSec)
		b = binary.BigEndian.AppendUint32(b, 0) // nsec
		b = append(b, 0, 0, 0, 0)               // idle_timeout + pad
		b = binary.BigEndian.AppendUint64(b, msg.PacketCount)
		b = binary.BigEndian.AppendUint64(b, msg.ByteCount)
		return patchLength(start, b), nil
	case *PortStatus:
		b := hdr(of10PortStatus)
		b = append(b, msg.Reason, 0, 0, 0, 0, 0, 0, 0)
		b = appendPhyPort10(b, msg.Port)
		return patchLength(start, b), nil
	case *PacketOut:
		b := hdr(of10PacketOut)
		b = binary.BigEndian.AppendUint32(b, msg.BufferID)
		b = binary.BigEndian.AppendUint16(b, port10(msg.InPort))
		b = append(b, 0, 0) // actions_len, patched below
		at := len(b)
		b = appendActions10(b, msg.Actions)
		binary.BigEndian.PutUint16(b[at-2:at], uint16(len(b)-at))
		b = append(b, msg.Data...)
		return patchLength(start, b), nil
	case *FlowMod:
		b := hdr(of10FlowMod)
		b = appendMatch10(b, &msg.Match)
		b = binary.BigEndian.AppendUint64(b, msg.Cookie)
		b = binary.BigEndian.AppendUint16(b, uint16(msg.Command))
		b = binary.BigEndian.AppendUint16(b, msg.IdleTimeout)
		b = binary.BigEndian.AppendUint16(b, msg.HardTimeout)
		b = binary.BigEndian.AppendUint16(b, msg.Priority)
		b = binary.BigEndian.AppendUint32(b, msg.BufferID)
		b = binary.BigEndian.AppendUint16(b, port10(msg.OutPort))
		b = binary.BigEndian.AppendUint16(b, msg.Flags)
		b = appendActions10(b, msg.Actions)
		return patchLength(start, b), nil
	case *PortMod:
		b := hdr(of10PortMod)
		b = binary.BigEndian.AppendUint16(b, port10(msg.PortNo))
		b = append(b, msg.HWAddr[:]...)
		b = binary.BigEndian.AppendUint32(b, msg.Config)
		b = binary.BigEndian.AppendUint32(b, msg.Mask)
		b = binary.BigEndian.AppendUint32(b, 0) // advertise
		b = append(b, 0, 0, 0, 0)
		return patchLength(start, b), nil
	case *BarrierRequest:
		return patchLength(start, hdr(of10BarrierRequest)), nil
	case *BarrierReply:
		return patchLength(start, hdr(of10BarrierReply)), nil
	case *StatsRequest:
		b := hdr(of10StatsRequest)
		b = binary.BigEndian.AppendUint16(b, msg.Kind)
		b = binary.BigEndian.AppendUint16(b, 0) // flags
		switch msg.Kind {
		case StatsFlow:
			b = appendMatch10(b, &msg.Match)
			b = append(b, 0xff, 0) // table_id ALL, pad
			b = binary.BigEndian.AppendUint16(b, port10(PortAny))
		case StatsPort:
			b = binary.BigEndian.AppendUint16(b, port10(msg.Port))
			b = append(b, 0, 0, 0, 0, 0, 0)
		}
		return patchLength(start, b), nil
	case *StatsReply:
		b := hdr(of10StatsReply)
		b = binary.BigEndian.AppendUint16(b, msg.Kind)
		b = binary.BigEndian.AppendUint16(b, 0)
		switch msg.Kind {
		case StatsFlow:
			for _, fl := range msg.Flows {
				actions := appendActions10(nil, fl.Actions)
				entryLen := 88 + len(actions)
				b = binary.BigEndian.AppendUint16(b, uint16(entryLen))
				b = append(b, fl.TableID, 0)
				b = appendMatch10(b, &fl.Match)
				b = binary.BigEndian.AppendUint32(b, fl.DurationSec)
				b = binary.BigEndian.AppendUint32(b, 0)
				b = binary.BigEndian.AppendUint16(b, fl.Priority)
				b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // idle, hard, pad6
				b = binary.BigEndian.AppendUint64(b, fl.Cookie)
				b = binary.BigEndian.AppendUint64(b, fl.PacketCount)
				b = binary.BigEndian.AppendUint64(b, fl.ByteCount)
				b = append(b, actions...)
			}
		case StatsPort:
			for _, ps := range msg.Ports {
				b = binary.BigEndian.AppendUint16(b, port10(ps.PortNo))
				b = append(b, 0, 0, 0, 0, 0, 0)
				b = binary.BigEndian.AppendUint64(b, ps.RxPackets)
				b = binary.BigEndian.AppendUint64(b, ps.TxPackets)
				b = binary.BigEndian.AppendUint64(b, ps.RxBytes)
				b = binary.BigEndian.AppendUint64(b, ps.TxBytes)
				b = binary.BigEndian.AppendUint64(b, ps.RxDropped)
				b = binary.BigEndian.AppendUint64(b, ps.TxDropped)
				b = append(b, make([]byte, 48)...) // error counters unused
			}
		}
		return patchLength(start, b), nil
	}
	return dst, fmt.Errorf("%w: cannot encode %T for OF1.0", ErrBadMessage, m)
}

// Decode implements Codec.
func (c Codec10) Decode(b []byte) (Message, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: short header", ErrBadMessage)
	}
	if b[0] != Version10 {
		return nil, fmt.Errorf("%w: version 0x%02x", ErrBadMessage, b[0])
	}
	typ := b[1]
	length := int(binary.BigEndian.Uint16(b[2:4]))
	if length < 8 || length > len(b) {
		return nil, fmt.Errorf("%w: length %d", ErrBadMessage, length)
	}
	xid := binary.BigEndian.Uint32(b[4:8])
	body := b[8:length]
	h := Header{Xid: xid}
	switch typ {
	case of10Hello:
		return &Hello{Header: h, MaxVersion: Version10}, nil
	case of10Error:
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: error body", ErrBadMessage)
		}
		code := uint32(binary.BigEndian.Uint16(body[0:2]))<<16 | uint32(binary.BigEndian.Uint16(body[2:4]))
		return &Error{Header: h, Code: code, Data: append([]byte(nil), body[4:]...)}, nil
	case of10EchoRequest:
		return &EchoRequest{Header: h, Data: append([]byte(nil), body...)}, nil
	case of10EchoReply:
		return &EchoReply{Header: h, Data: append([]byte(nil), body...)}, nil
	case of10FeaturesReq:
		return &FeaturesRequest{Header: h}, nil
	case of10FeaturesRep:
		if len(body) < 24 {
			return nil, fmt.Errorf("%w: features body", ErrBadMessage)
		}
		msg := &FeaturesReply{Header: h}
		msg.DatapathID = binary.BigEndian.Uint64(body[0:8])
		msg.NBuffers = binary.BigEndian.Uint32(body[8:12])
		msg.NTables = body[12]
		msg.Capabilities = binary.BigEndian.Uint32(body[16:20])
		for rest := body[24:]; len(rest) >= 48; rest = rest[48:] {
			p, err := decodePhyPort10(rest[:48])
			if err != nil {
				return nil, err
			}
			msg.Ports = append(msg.Ports, p)
		}
		return msg, nil
	case of10PacketIn:
		if len(body) < 10 {
			return nil, fmt.Errorf("%w: packet_in body", ErrBadMessage)
		}
		return &PacketIn{
			Header:   h,
			BufferID: binary.BigEndian.Uint32(body[0:4]),
			TotalLen: binary.BigEndian.Uint16(body[4:6]),
			InPort:   port10Up(binary.BigEndian.Uint16(body[6:8])),
			Reason:   body[8],
			Data:     append([]byte(nil), body[10:]...),
		}, nil
	case of10FlowRemoved:
		if len(body) < 80 {
			return nil, fmt.Errorf("%w: flow_removed body", ErrBadMessage)
		}
		m, err := decodeMatch10(body[0:40])
		if err != nil {
			return nil, err
		}
		return &FlowRemoved{
			Header:      h,
			Match:       m,
			Cookie:      binary.BigEndian.Uint64(body[40:48]),
			Priority:    binary.BigEndian.Uint16(body[48:50]),
			Reason:      body[50],
			DurationSec: binary.BigEndian.Uint32(body[52:56]),
			PacketCount: binary.BigEndian.Uint64(body[64:72]),
			ByteCount:   binary.BigEndian.Uint64(body[72:80]),
		}, nil
	case of10PortStatus:
		if len(body) < 56 {
			return nil, fmt.Errorf("%w: port_status body", ErrBadMessage)
		}
		p, err := decodePhyPort10(body[8:56])
		if err != nil {
			return nil, err
		}
		return &PortStatus{Header: h, Reason: body[0], Port: p}, nil
	case of10PacketOut:
		if len(body) < 8 {
			return nil, fmt.Errorf("%w: packet_out body", ErrBadMessage)
		}
		alen := int(binary.BigEndian.Uint16(body[6:8]))
		if 8+alen > len(body) {
			return nil, fmt.Errorf("%w: packet_out actions", ErrBadMessage)
		}
		actions, err := decodeActions10(body[8 : 8+alen])
		if err != nil {
			return nil, err
		}
		return &PacketOut{
			Header:   h,
			BufferID: binary.BigEndian.Uint32(body[0:4]),
			InPort:   port10Up(binary.BigEndian.Uint16(body[4:6])),
			Actions:  actions,
			Data:     append([]byte(nil), body[8+alen:]...),
		}, nil
	case of10FlowMod:
		if len(body) < 64 {
			return nil, fmt.Errorf("%w: flow_mod body", ErrBadMessage)
		}
		m, err := decodeMatch10(body[0:40])
		if err != nil {
			return nil, err
		}
		actions, err := decodeActions10(body[64:])
		if err != nil {
			return nil, err
		}
		return &FlowMod{
			Header:      h,
			Match:       m,
			Cookie:      binary.BigEndian.Uint64(body[40:48]),
			Command:     uint8(binary.BigEndian.Uint16(body[48:50])),
			IdleTimeout: binary.BigEndian.Uint16(body[50:52]),
			HardTimeout: binary.BigEndian.Uint16(body[52:54]),
			Priority:    binary.BigEndian.Uint16(body[54:56]),
			BufferID:    binary.BigEndian.Uint32(body[56:60]),
			OutPort:     port10Up(binary.BigEndian.Uint16(body[60:62])),
			Flags:       binary.BigEndian.Uint16(body[62:64]),
			Actions:     actions,
		}, nil
	case of10PortMod:
		if len(body) < 24 {
			return nil, fmt.Errorf("%w: port_mod body", ErrBadMessage)
		}
		msg := &PortMod{Header: h, PortNo: port10Up(binary.BigEndian.Uint16(body[0:2]))}
		copy(msg.HWAddr[:], body[2:8])
		msg.Config = binary.BigEndian.Uint32(body[8:12])
		msg.Mask = binary.BigEndian.Uint32(body[12:16])
		return msg, nil
	case of10BarrierRequest:
		return &BarrierRequest{Header: h}, nil
	case of10BarrierReply:
		return &BarrierReply{Header: h}, nil
	case of10StatsRequest:
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: stats_request body", ErrBadMessage)
		}
		msg := &StatsRequest{Header: h, Kind: binary.BigEndian.Uint16(body[0:2])}
		rest := body[4:]
		switch msg.Kind {
		case StatsFlow:
			if len(rest) < 44 {
				return nil, fmt.Errorf("%w: flow stats request", ErrBadMessage)
			}
			m, err := decodeMatch10(rest[0:40])
			if err != nil {
				return nil, err
			}
			msg.Match = m
		case StatsPort:
			if len(rest) < 2 {
				return nil, fmt.Errorf("%w: port stats request", ErrBadMessage)
			}
			msg.Port = port10Up(binary.BigEndian.Uint16(rest[0:2]))
		}
		return msg, nil
	case of10StatsReply:
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: stats_reply body", ErrBadMessage)
		}
		msg := &StatsReply{Header: h, Kind: binary.BigEndian.Uint16(body[0:2])}
		rest := body[4:]
		switch msg.Kind {
		case StatsFlow:
			for len(rest) >= 88 {
				entryLen := int(binary.BigEndian.Uint16(rest[0:2]))
				if entryLen < 88 || entryLen > len(rest) {
					return nil, fmt.Errorf("%w: flow stats entry", ErrBadMessage)
				}
				var fl FlowStats
				fl.TableID = rest[2]
				m, err := decodeMatch10(rest[4:44])
				if err != nil {
					return nil, err
				}
				fl.Match = m
				fl.DurationSec = binary.BigEndian.Uint32(rest[44:48])
				fl.Priority = binary.BigEndian.Uint16(rest[52:54])
				fl.Cookie = binary.BigEndian.Uint64(rest[64:72])
				fl.PacketCount = binary.BigEndian.Uint64(rest[72:80])
				fl.ByteCount = binary.BigEndian.Uint64(rest[80:88])
				actions, err := decodeActions10(rest[88:entryLen])
				if err != nil {
					return nil, err
				}
				fl.Actions = actions
				msg.Flows = append(msg.Flows, fl)
				rest = rest[entryLen:]
			}
		case StatsPort:
			for len(rest) >= 104 {
				var ps PortStats
				ps.PortNo = port10Up(binary.BigEndian.Uint16(rest[0:2]))
				ps.RxPackets = binary.BigEndian.Uint64(rest[8:16])
				ps.TxPackets = binary.BigEndian.Uint64(rest[16:24])
				ps.RxBytes = binary.BigEndian.Uint64(rest[24:32])
				ps.TxBytes = binary.BigEndian.Uint64(rest[32:40])
				ps.RxDropped = binary.BigEndian.Uint64(rest[40:48])
				ps.TxDropped = binary.BigEndian.Uint64(rest[48:56])
				msg.Ports = append(msg.Ports, ps)
				rest = rest[104:]
			}
		}
		return msg, nil
	}
	return nil, fmt.Errorf("%w: type %d", ErrBadMessage, typ)
}
