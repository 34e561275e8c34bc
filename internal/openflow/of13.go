package openflow

import (
	"encoding/binary"
	"fmt"

	"yanc/internal/ethernet"
)

// OF 1.3 wire message types.
const (
	of13Hello          = 0
	of13Error          = 1
	of13EchoRequest    = 2
	of13EchoReply      = 3
	of13FeaturesReq    = 5
	of13FeaturesRep    = 6
	of13PacketIn       = 10
	of13FlowRemoved    = 11
	of13PortStatus     = 12
	of13PacketOut      = 13
	of13FlowMod        = 14
	of13PortMod        = 16
	of13MultipartReq   = 18
	of13MultipartRep   = 19
	of13BarrierRequest = 20
	of13BarrierReply   = 21
)

// OXM basic-class field codes.
const (
	oxmClassBasic uint16 = 0x8000

	oxmInPort  = 0
	oxmEthDst  = 3
	oxmEthSrc  = 4
	oxmEthType = 5
	oxmVLANVID = 6
	oxmVLANPCP = 7
	oxmIPDSCP  = 8
	oxmIPProto = 10
	oxmIPv4Src = 11
	oxmIPv4Dst = 12
	oxmTCPSrc  = 13
	oxmTCPDst  = 14
	oxmUDPSrc  = 15
	oxmUDPDst  = 16
)

// vlanPresent is the OFPVID_PRESENT bit in a VLAN_VID OXM.
const vlanPresent uint16 = 0x1000

// of13 instruction and action codes.
const (
	instrApplyActions = 4

	act13Output   = 0
	act13PopVLAN  = 18
	act13SetField = 25
)

// Codec13 is the OpenFlow 1.3 wire codec (OXM matches, instructions,
// multipart port description).
type Codec13 struct{}

// Version implements Codec.
func (Codec13) Version() uint8 { return Version13 }

func appendOXM(dst []byte, field uint8, value []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, oxmClassBasic)
	dst = append(dst, field<<1, uint8(len(value)))
	return append(dst, value...)
}

func appendOXMMasked(dst []byte, field uint8, value, mask []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, oxmClassBasic)
	dst = append(dst, field<<1|1, uint8(len(value)+len(mask)))
	dst = append(dst, value...)
	return append(dst, mask...)
}

func u16bytes(v uint16) []byte { var b [2]byte; binary.BigEndian.PutUint16(b[:], v); return b[:] }
func u32bytes(v uint32) []byte { var b [4]byte; binary.BigEndian.PutUint32(b[:], v); return b[:] }

// appendOXMsForMatch serializes the participating fields of m as OXM TLVs
// (no ofp_match framing).
func appendOXMsForMatch(dst []byte, m *Match) []byte {
	if m.Has(FieldInPort) {
		dst = appendOXM(dst, oxmInPort, u32bytes(m.InPort))
	}
	if m.Has(FieldDLDst) {
		dst = appendOXM(dst, oxmEthDst, m.DLDst[:])
	}
	if m.Has(FieldDLSrc) {
		dst = appendOXM(dst, oxmEthSrc, m.DLSrc[:])
	}
	if m.Has(FieldDLType) {
		dst = appendOXM(dst, oxmEthType, u16bytes(m.DLType))
	}
	if m.Has(FieldDLVLAN) {
		dst = appendOXM(dst, oxmVLANVID, u16bytes(m.VLANID|vlanPresent))
	}
	if m.Has(FieldDLVLANPCP) {
		dst = appendOXM(dst, oxmVLANPCP, []byte{m.VLANPCP})
	}
	if m.Has(FieldNWTos) {
		dst = appendOXM(dst, oxmIPDSCP, []byte{m.NWTos >> 2})
	}
	if m.Has(FieldNWProto) {
		dst = appendOXM(dst, oxmIPProto, []byte{m.NWProto})
	}
	if m.Has(FieldNWSrc) {
		if m.NWSrc.Bits >= 32 {
			dst = appendOXM(dst, oxmIPv4Src, m.NWSrc.Addr[:])
		} else {
			dst = appendOXMMasked(dst, oxmIPv4Src, m.NWSrc.Addr[:], u32bytes(m.NWSrc.Mask()))
		}
	}
	if m.Has(FieldNWDst) {
		if m.NWDst.Bits >= 32 {
			dst = appendOXM(dst, oxmIPv4Dst, m.NWDst.Addr[:])
		} else {
			dst = appendOXMMasked(dst, oxmIPv4Dst, m.NWDst.Addr[:], u32bytes(m.NWDst.Mask()))
		}
	}
	udp := m.Has(FieldNWProto) && m.NWProto == ethernet.ProtoUDP
	if m.Has(FieldTPSrc) {
		f := uint8(oxmTCPSrc)
		if udp {
			f = oxmUDPSrc
		}
		dst = appendOXM(dst, f, u16bytes(m.TPSrc))
	}
	if m.Has(FieldTPDst) {
		f := uint8(oxmTCPDst)
		if udp {
			f = oxmUDPDst
		}
		dst = appendOXM(dst, f, u16bytes(m.TPDst))
	}
	return dst
}

// appendMatch13 serializes a full ofp_match (type OXM) with padding.
func appendMatch13(dst []byte, m *Match) []byte {
	at := len(dst)
	dst = append(dst, 0, 1, 0, 0) // OFPMT_OXM, then the length, patched below
	dst = appendOXMsForMatch(dst, m)
	length := len(dst) - at
	binary.BigEndian.PutUint16(dst[at+2:at+4], uint16(length))
	for pad := (8 - length%8) % 8; pad > 0; pad-- {
		dst = append(dst, 0)
	}
	return dst
}

func maskToBits(mask uint32) uint8 {
	bits := uint8(0)
	for mask&0x80000000 != 0 {
		bits++
		mask <<= 1
	}
	return bits
}

// decodeOXM parses one OXM TLV into the match; returns bytes consumed.
func decodeOXM(m *Match, b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("%w: oxm header", ErrBadMessage)
	}
	class := binary.BigEndian.Uint16(b[0:2])
	field := b[2] >> 1
	hasMask := b[2]&1 != 0
	length := int(b[3])
	if len(b) < 4+length {
		return 0, fmt.Errorf("%w: oxm value", ErrBadMessage)
	}
	val := b[4 : 4+length]
	if class != oxmClassBasic {
		return 4 + length, nil // skip experimenter classes
	}
	vlen := length
	if hasMask {
		vlen = length / 2
	}
	// Every field has a fixed value size; a mismatch is a malformed
	// message, never an out-of-range read.
	wantLen := map[uint8]int{
		oxmInPort: 4, oxmEthDst: 6, oxmEthSrc: 6, oxmEthType: 2,
		oxmVLANVID: 2, oxmVLANPCP: 1, oxmIPDSCP: 1, oxmIPProto: 1,
		oxmIPv4Src: 4, oxmIPv4Dst: 4,
		oxmTCPSrc: 2, oxmTCPDst: 2, oxmUDPSrc: 2, oxmUDPDst: 2,
	}
	if want, known := wantLen[field]; known {
		if vlen < want || (hasMask && length < 2*want) {
			return 0, fmt.Errorf("%w: oxm field %d length %d", ErrBadMessage, field, length)
		}
	}
	switch field {
	case oxmInPort:
		m.Set |= FieldInPort
		m.InPort = binary.BigEndian.Uint32(val[0:4])
	case oxmEthDst:
		m.Set |= FieldDLDst
		copy(m.DLDst[:], val[0:6])
	case oxmEthSrc:
		m.Set |= FieldDLSrc
		copy(m.DLSrc[:], val[0:6])
	case oxmEthType:
		m.Set |= FieldDLType
		m.DLType = binary.BigEndian.Uint16(val[0:2])
	case oxmVLANVID:
		m.Set |= FieldDLVLAN
		m.VLANID = binary.BigEndian.Uint16(val[0:2]) &^ vlanPresent
	case oxmVLANPCP:
		m.Set |= FieldDLVLANPCP
		m.VLANPCP = val[0]
	case oxmIPDSCP:
		m.Set |= FieldNWTos
		m.NWTos = val[0] << 2
	case oxmIPProto:
		m.Set |= FieldNWProto
		m.NWProto = val[0]
	case oxmIPv4Src, oxmIPv4Dst:
		var p ethernet.Prefix
		copy(p.Addr[:], val[0:4])
		p.Bits = 32
		if hasMask {
			p.Bits = maskToBits(binary.BigEndian.Uint32(val[4:8]))
		}
		if field == oxmIPv4Src {
			m.Set |= FieldNWSrc
			m.NWSrc = p
		} else {
			m.Set |= FieldNWDst
			m.NWDst = p
		}
	case oxmTCPSrc, oxmUDPSrc:
		m.Set |= FieldTPSrc
		m.TPSrc = binary.BigEndian.Uint16(val[0:2])
	case oxmTCPDst, oxmUDPDst:
		m.Set |= FieldTPDst
		m.TPDst = binary.BigEndian.Uint16(val[0:2])
	}
	return 4 + length, nil
}

// decodeMatch13 parses an ofp_match and returns the match plus total
// bytes consumed (including padding).
func decodeMatch13(b []byte) (Match, int, error) {
	var m Match
	if len(b) < 4 {
		return m, 0, fmt.Errorf("%w: match header", ErrBadMessage)
	}
	mtype := binary.BigEndian.Uint16(b[0:2])
	length := int(binary.BigEndian.Uint16(b[2:4]))
	if length < 4 || length > len(b)+4 {
		return m, 0, fmt.Errorf("%w: match length %d", ErrBadMessage, length)
	}
	padded := length + (8-length%8)%8
	if padded > len(b) {
		return m, 0, fmt.Errorf("%w: match padding", ErrBadMessage)
	}
	if mtype != 1 { // standard match: unsupported, treat as wildcard-all
		return m, padded, nil
	}
	rest := b[4:length]
	for len(rest) > 0 {
		n, err := decodeOXM(&m, rest)
		if err != nil {
			return m, 0, err
		}
		rest = rest[n:]
	}
	return m, padded, nil
}

// appendActions13 serializes the neutral action list as OF 1.3 actions.
func appendActions13(dst []byte, actions []Action) []byte {
	appendSetField := func(dst []byte, field uint8, value []byte) []byte {
		length := 4 + 4 + len(value) // action header, OXM header, value
		padded := length + (8-length%8)%8
		dst = binary.BigEndian.AppendUint16(dst, act13SetField)
		dst = binary.BigEndian.AppendUint16(dst, uint16(padded))
		dst = appendOXM(dst, field, value)
		for i := length; i < padded; i++ {
			dst = append(dst, 0)
		}
		return dst
	}
	for _, a := range actions {
		switch a.Type {
		case ActOutput:
			dst = binary.BigEndian.AppendUint16(dst, act13Output)
			dst = binary.BigEndian.AppendUint16(dst, 16)
			dst = binary.BigEndian.AppendUint32(dst, a.Port)
			dst = binary.BigEndian.AppendUint16(dst, a.MaxLen)
			dst = append(dst, 0, 0, 0, 0, 0, 0)
		case ActStripVLAN:
			dst = binary.BigEndian.AppendUint16(dst, act13PopVLAN)
			dst = binary.BigEndian.AppendUint16(dst, 8)
			dst = append(dst, 0, 0, 0, 0)
		case ActSetVLANID:
			dst = appendSetField(dst, oxmVLANVID, u16bytes(a.VLANID|vlanPresent))
		case ActSetVLANPCP:
			dst = appendSetField(dst, oxmVLANPCP, []byte{a.VLANPCP})
		case ActSetDLSrc:
			dst = appendSetField(dst, oxmEthSrc, a.DL[:])
		case ActSetDLDst:
			dst = appendSetField(dst, oxmEthDst, a.DL[:])
		case ActSetNWSrc:
			dst = appendSetField(dst, oxmIPv4Src, a.NW[:])
		case ActSetNWDst:
			dst = appendSetField(dst, oxmIPv4Dst, a.NW[:])
		case ActSetNWTos:
			dst = appendSetField(dst, oxmIPDSCP, []byte{a.TOS >> 2})
		case ActSetTPSrc:
			dst = appendSetField(dst, oxmTCPSrc, u16bytes(a.TP))
		case ActSetTPDst:
			dst = appendSetField(dst, oxmTCPDst, u16bytes(a.TP))
		}
	}
	return dst
}

func decodeActions13(b []byte) ([]Action, error) {
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
		switch typ {
		case act13Output:
			if len(body) < 6 {
				return nil, fmt.Errorf("%w: output action", ErrBadMessage)
			}
			out = append(out, Action{
				Type:   ActOutput,
				Port:   binary.BigEndian.Uint32(body[0:4]),
				MaxLen: binary.BigEndian.Uint16(body[4:6]),
			})
		case act13PopVLAN:
			out = append(out, Action{Type: ActStripVLAN})
		case act13SetField:
			var m Match
			if _, err := decodeOXM(&m, body); err != nil {
				return nil, err
			}
			a, ok := setFieldToAction(&m)
			if !ok {
				return nil, fmt.Errorf("%w: set-field oxm", ErrBadMessage)
			}
			out = append(out, a)
		default:
			// Skip unsupported actions (e.g. push_vlan emitted by other
			// controllers) rather than failing the whole message.
		}
	}
	return out, nil
}

func setFieldToAction(m *Match) (Action, bool) {
	switch {
	case m.Has(FieldDLVLAN):
		return Action{Type: ActSetVLANID, VLANID: m.VLANID}, true
	case m.Has(FieldDLVLANPCP):
		return Action{Type: ActSetVLANPCP, VLANPCP: m.VLANPCP}, true
	case m.Has(FieldDLSrc):
		return Action{Type: ActSetDLSrc, DL: m.DLSrc}, true
	case m.Has(FieldDLDst):
		return Action{Type: ActSetDLDst, DL: m.DLDst}, true
	case m.Has(FieldNWSrc):
		return Action{Type: ActSetNWSrc, NW: m.NWSrc.Addr}, true
	case m.Has(FieldNWDst):
		return Action{Type: ActSetNWDst, NW: m.NWDst.Addr}, true
	case m.Has(FieldNWTos):
		return Action{Type: ActSetNWTos, TOS: m.NWTos}, true
	case m.Has(FieldTPSrc):
		return Action{Type: ActSetTPSrc, TP: m.TPSrc}, true
	case m.Has(FieldTPDst):
		return Action{Type: ActSetTPDst, TP: m.TPDst}, true
	}
	return Action{}, false
}

func appendPort13(dst []byte, p PortInfo) []byte {
	dst = binary.BigEndian.AppendUint32(dst, p.No)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, p.HWAddr[:]...)
	dst = append(dst, 0, 0)
	var name [16]byte
	copy(name[:], p.Name)
	dst = append(dst, name[:]...)
	dst = binary.BigEndian.AppendUint32(dst, p.Config)
	dst = binary.BigEndian.AppendUint32(dst, p.State)
	dst = append(dst, make([]byte, 16)...) // curr/advertised/supported/peer
	dst = binary.BigEndian.AppendUint32(dst, p.CurrSpeed)
	dst = binary.BigEndian.AppendUint32(dst, 0) // max speed
	return dst
}

func decodePort13(b []byte) (PortInfo, error) {
	var p PortInfo
	if len(b) < 64 {
		return p, fmt.Errorf("%w: port %d bytes", ErrBadMessage, len(b))
	}
	p.No = binary.BigEndian.Uint32(b[0:4])
	copy(p.HWAddr[:], b[8:14])
	p.Name = cString(b[16:32])
	p.Config = binary.BigEndian.Uint32(b[32:36])
	p.State = binary.BigEndian.Uint32(b[36:40])
	p.CurrSpeed = binary.BigEndian.Uint32(b[56:60])
	return p, nil
}

// Encode implements Codec.
func (c Codec13) Encode(m Message) ([]byte, error) {
	b, err := c.AppendEncode(make([]byte, 0, 64), m)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendEncode implements Codec.
func (c Codec13) AppendEncode(dst []byte, m Message) ([]byte, error) {
	xid := m.XID()
	start := len(dst)
	hdr := func(typ uint8) []byte { return putHeader(dst, Version13, typ, xid) }
	switch msg := m.(type) {
	case *Hello:
		return patchLength(start, hdr(of13Hello)), nil
	case *Error:
		b := hdr(of13Error)
		b = binary.BigEndian.AppendUint16(b, uint16(msg.Code>>16))
		b = binary.BigEndian.AppendUint16(b, uint16(msg.Code))
		b = append(b, msg.Data...)
		return patchLength(start, b), nil
	case *EchoRequest:
		return patchLength(start, append(hdr(of13EchoRequest), msg.Data...)), nil
	case *EchoReply:
		return patchLength(start, append(hdr(of13EchoReply), msg.Data...)), nil
	case *FeaturesRequest:
		return patchLength(start, hdr(of13FeaturesReq)), nil
	case *FeaturesReply:
		b := hdr(of13FeaturesRep)
		b = binary.BigEndian.AppendUint64(b, msg.DatapathID)
		b = binary.BigEndian.AppendUint32(b, msg.NBuffers)
		b = append(b, msg.NTables, 0, 0, 0)
		b = binary.BigEndian.AppendUint32(b, msg.Capabilities)
		b = binary.BigEndian.AppendUint32(b, 0)
		return patchLength(start, b), nil
	case *PacketIn:
		b := hdr(of13PacketIn)
		b = binary.BigEndian.AppendUint32(b, msg.BufferID)
		b = binary.BigEndian.AppendUint16(b, msg.TotalLen)
		b = append(b, msg.Reason, msg.TableID)
		b = binary.BigEndian.AppendUint64(b, 0) // cookie
		inMatch := Match{Set: FieldInPort, InPort: msg.InPort}
		b = appendMatch13(b, &inMatch)
		b = append(b, 0, 0)
		b = append(b, msg.Data...)
		return patchLength(start, b), nil
	case *FlowRemoved:
		b := hdr(of13FlowRemoved)
		b = binary.BigEndian.AppendUint64(b, msg.Cookie)
		b = binary.BigEndian.AppendUint16(b, msg.Priority)
		b = append(b, msg.Reason, msg.TableID)
		b = binary.BigEndian.AppendUint32(b, msg.DurationSec)
		b = binary.BigEndian.AppendUint32(b, 0)
		b = append(b, 0, 0, 0, 0) // idle, hard
		b = binary.BigEndian.AppendUint64(b, msg.PacketCount)
		b = binary.BigEndian.AppendUint64(b, msg.ByteCount)
		b = appendMatch13(b, &msg.Match)
		return patchLength(start, b), nil
	case *PortStatus:
		b := hdr(of13PortStatus)
		b = append(b, msg.Reason, 0, 0, 0, 0, 0, 0, 0)
		b = appendPort13(b, msg.Port)
		return patchLength(start, b), nil
	case *PacketOut:
		b := hdr(of13PacketOut)
		b = binary.BigEndian.AppendUint32(b, msg.BufferID)
		b = binary.BigEndian.AppendUint32(b, msg.InPort)
		b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // actions_len (patched below), pad
		at := len(b)
		b = appendActions13(b, msg.Actions)
		binary.BigEndian.PutUint16(b[at-8:at-6], uint16(len(b)-at))
		b = append(b, msg.Data...)
		return patchLength(start, b), nil
	case *FlowMod:
		b := hdr(of13FlowMod)
		b = binary.BigEndian.AppendUint64(b, msg.Cookie)
		b = binary.BigEndian.AppendUint64(b, 0) // cookie mask
		b = append(b, msg.TableID, msg.Command)
		b = binary.BigEndian.AppendUint16(b, msg.IdleTimeout)
		b = binary.BigEndian.AppendUint16(b, msg.HardTimeout)
		b = binary.BigEndian.AppendUint16(b, msg.Priority)
		b = binary.BigEndian.AppendUint32(b, msg.BufferID)
		b = binary.BigEndian.AppendUint32(b, msg.OutPort)
		b = binary.BigEndian.AppendUint32(b, PortAny) // out group
		b = binary.BigEndian.AppendUint16(b, msg.Flags)
		b = append(b, 0, 0)
		b = appendMatch13(b, &msg.Match)
		at := len(b)
		b = binary.BigEndian.AppendUint16(b, instrApplyActions)
		b = append(b, 0, 0, 0, 0, 0, 0) // instruction length (patched below), pad
		b = appendActions13(b, msg.Actions)
		binary.BigEndian.PutUint16(b[at+2:at+4], uint16(len(b)-at))
		return patchLength(start, b), nil
	case *PortMod:
		b := hdr(of13PortMod)
		b = binary.BigEndian.AppendUint32(b, msg.PortNo)
		b = append(b, 0, 0, 0, 0)
		b = append(b, msg.HWAddr[:]...)
		b = append(b, 0, 0)
		b = binary.BigEndian.AppendUint32(b, msg.Config)
		b = binary.BigEndian.AppendUint32(b, msg.Mask)
		b = binary.BigEndian.AppendUint32(b, 0) // advertise
		b = append(b, 0, 0, 0, 0)
		return patchLength(start, b), nil
	case *BarrierRequest:
		return patchLength(start, hdr(of13BarrierRequest)), nil
	case *BarrierReply:
		return patchLength(start, hdr(of13BarrierReply)), nil
	case *StatsRequest:
		b := hdr(of13MultipartReq)
		b = binary.BigEndian.AppendUint16(b, msg.Kind)
		b = binary.BigEndian.AppendUint16(b, 0)
		b = append(b, 0, 0, 0, 0)
		switch msg.Kind {
		case StatsFlow:
			b = append(b, 0xff, 0, 0, 0) // table ALL + pad
			b = binary.BigEndian.AppendUint32(b, PortAny)
			b = binary.BigEndian.AppendUint32(b, PortAny) // out group
			b = append(b, 0, 0, 0, 0)                     // pad
			b = binary.BigEndian.AppendUint64(b, 0)       // cookie
			b = binary.BigEndian.AppendUint64(b, 0)       // cookie mask
			b = appendMatch13(b, &msg.Match)
		case StatsPort:
			b = binary.BigEndian.AppendUint32(b, msg.Port)
			b = append(b, 0, 0, 0, 0)
		case StatsPortDesc:
			// empty body
		}
		return patchLength(start, b), nil
	case *StatsReply:
		b := hdr(of13MultipartRep)
		b = binary.BigEndian.AppendUint16(b, msg.Kind)
		b = binary.BigEndian.AppendUint16(b, 0)
		b = append(b, 0, 0, 0, 0)
		switch msg.Kind {
		case StatsFlow:
			for _, fl := range msg.Flows {
				match := appendMatch13(nil, &fl.Match)
				actions := appendActions13(nil, fl.Actions)
				entryLen := 48 + len(match) + 8 + len(actions)
				b = binary.BigEndian.AppendUint16(b, uint16(entryLen))
				b = append(b, fl.TableID, 0)
				b = binary.BigEndian.AppendUint32(b, fl.DurationSec)
				b = binary.BigEndian.AppendUint32(b, 0)
				b = binary.BigEndian.AppendUint16(b, fl.Priority)
				b = append(b, 0, 0, 0, 0, 0, 0) // idle, hard, flags
				b = append(b, 0, 0, 0, 0)       // pad
				b = binary.BigEndian.AppendUint64(b, fl.Cookie)
				b = binary.BigEndian.AppendUint64(b, fl.PacketCount)
				b = binary.BigEndian.AppendUint64(b, fl.ByteCount)
				b = append(b, match...)
				b = binary.BigEndian.AppendUint16(b, instrApplyActions)
				b = binary.BigEndian.AppendUint16(b, uint16(8+len(actions)))
				b = append(b, 0, 0, 0, 0)
				b = append(b, actions...)
			}
		case StatsPort:
			for _, ps := range msg.Ports {
				b = binary.BigEndian.AppendUint32(b, ps.PortNo)
				b = append(b, 0, 0, 0, 0)
				b = binary.BigEndian.AppendUint64(b, ps.RxPackets)
				b = binary.BigEndian.AppendUint64(b, ps.TxPackets)
				b = binary.BigEndian.AppendUint64(b, ps.RxBytes)
				b = binary.BigEndian.AppendUint64(b, ps.TxBytes)
				b = binary.BigEndian.AppendUint64(b, ps.RxDropped)
				b = binary.BigEndian.AppendUint64(b, ps.TxDropped)
				b = append(b, make([]byte, 56)...) // error counters + duration
			}
		case StatsPortDesc:
			for _, p := range msg.PortDescs {
				b = appendPort13(b, p)
			}
		}
		return patchLength(start, b), nil
	}
	return dst, fmt.Errorf("%w: cannot encode %T for OF1.3", ErrBadMessage, m)
}

// Decode implements Codec.
func (c Codec13) Decode(b []byte) (Message, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: short header", ErrBadMessage)
	}
	if b[0] != Version13 {
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
	case of13Hello:
		return &Hello{Header: h, MaxVersion: Version13}, nil
	case of13Error:
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: error body", ErrBadMessage)
		}
		code := uint32(binary.BigEndian.Uint16(body[0:2]))<<16 | uint32(binary.BigEndian.Uint16(body[2:4]))
		return &Error{Header: h, Code: code, Data: append([]byte(nil), body[4:]...)}, nil
	case of13EchoRequest:
		return &EchoRequest{Header: h, Data: append([]byte(nil), body...)}, nil
	case of13EchoReply:
		return &EchoReply{Header: h, Data: append([]byte(nil), body...)}, nil
	case of13FeaturesReq:
		return &FeaturesRequest{Header: h}, nil
	case of13FeaturesRep:
		if len(body) < 24 {
			return nil, fmt.Errorf("%w: features body", ErrBadMessage)
		}
		return &FeaturesReply{
			Header:       h,
			DatapathID:   binary.BigEndian.Uint64(body[0:8]),
			NBuffers:     binary.BigEndian.Uint32(body[8:12]),
			NTables:      body[12],
			Capabilities: binary.BigEndian.Uint32(body[16:20]),
		}, nil
	case of13PacketIn:
		if len(body) < 16 {
			return nil, fmt.Errorf("%w: packet_in body", ErrBadMessage)
		}
		msg := &PacketIn{
			Header:   h,
			BufferID: binary.BigEndian.Uint32(body[0:4]),
			TotalLen: binary.BigEndian.Uint16(body[4:6]),
			Reason:   body[6],
			TableID:  body[7],
		}
		m, consumed, err := decodeMatch13(body[16:])
		if err != nil {
			return nil, err
		}
		msg.InPort = m.InPort
		rest := body[16+consumed:]
		if len(rest) < 2 {
			return nil, fmt.Errorf("%w: packet_in pad", ErrBadMessage)
		}
		msg.Data = append([]byte(nil), rest[2:]...)
		return msg, nil
	case of13FlowRemoved:
		if len(body) < 40 {
			return nil, fmt.Errorf("%w: flow_removed body", ErrBadMessage)
		}
		msg := &FlowRemoved{
			Header:      h,
			Cookie:      binary.BigEndian.Uint64(body[0:8]),
			Priority:    binary.BigEndian.Uint16(body[8:10]),
			Reason:      body[10],
			TableID:     body[11],
			DurationSec: binary.BigEndian.Uint32(body[12:16]),
			PacketCount: binary.BigEndian.Uint64(body[24:32]),
			ByteCount:   binary.BigEndian.Uint64(body[32:40]),
		}
		m, _, err := decodeMatch13(body[40:])
		if err != nil {
			return nil, err
		}
		msg.Match = m
		return msg, nil
	case of13PortStatus:
		if len(body) < 72 {
			return nil, fmt.Errorf("%w: port_status body", ErrBadMessage)
		}
		p, err := decodePort13(body[8:72])
		if err != nil {
			return nil, err
		}
		return &PortStatus{Header: h, Reason: body[0], Port: p}, nil
	case of13PacketOut:
		if len(body) < 16 {
			return nil, fmt.Errorf("%w: packet_out body", ErrBadMessage)
		}
		alen := int(binary.BigEndian.Uint16(body[8:10]))
		if 16+alen > len(body) {
			return nil, fmt.Errorf("%w: packet_out actions", ErrBadMessage)
		}
		actions, err := decodeActions13(body[16 : 16+alen])
		if err != nil {
			return nil, err
		}
		return &PacketOut{
			Header:   h,
			BufferID: binary.BigEndian.Uint32(body[0:4]),
			InPort:   binary.BigEndian.Uint32(body[4:8]),
			Actions:  actions,
			Data:     append([]byte(nil), body[16+alen:]...),
		}, nil
	case of13FlowMod:
		if len(body) < 40 {
			return nil, fmt.Errorf("%w: flow_mod body", ErrBadMessage)
		}
		msg := &FlowMod{
			Header:      h,
			Cookie:      binary.BigEndian.Uint64(body[0:8]),
			TableID:     body[16],
			Command:     body[17],
			IdleTimeout: binary.BigEndian.Uint16(body[18:20]),
			HardTimeout: binary.BigEndian.Uint16(body[20:22]),
			Priority:    binary.BigEndian.Uint16(body[22:24]),
			BufferID:    binary.BigEndian.Uint32(body[24:28]),
			OutPort:     binary.BigEndian.Uint32(body[28:32]),
			Flags:       binary.BigEndian.Uint16(body[36:38]),
		}
		m, consumed, err := decodeMatch13(body[40:])
		if err != nil {
			return nil, err
		}
		msg.Match = m
		rest := body[40+consumed:]
		for len(rest) >= 4 {
			itype := binary.BigEndian.Uint16(rest[0:2])
			ilen := int(binary.BigEndian.Uint16(rest[2:4]))
			if ilen < 8 || ilen > len(rest) {
				return nil, fmt.Errorf("%w: instruction length", ErrBadMessage)
			}
			if itype == instrApplyActions {
				actions, err := decodeActions13(rest[8:ilen])
				if err != nil {
					return nil, err
				}
				msg.Actions = append(msg.Actions, actions...)
			}
			rest = rest[ilen:]
		}
		return msg, nil
	case of13PortMod:
		if len(body) < 24 {
			return nil, fmt.Errorf("%w: port_mod body", ErrBadMessage)
		}
		msg := &PortMod{Header: h, PortNo: binary.BigEndian.Uint32(body[0:4])}
		copy(msg.HWAddr[:], body[8:14])
		msg.Config = binary.BigEndian.Uint32(body[16:20])
		msg.Mask = binary.BigEndian.Uint32(body[20:24])
		return msg, nil
	case of13BarrierRequest:
		return &BarrierRequest{Header: h}, nil
	case of13BarrierReply:
		return &BarrierReply{Header: h}, nil
	case of13MultipartReq:
		if len(body) < 8 {
			return nil, fmt.Errorf("%w: multipart body", ErrBadMessage)
		}
		msg := &StatsRequest{Header: h, Kind: binary.BigEndian.Uint16(body[0:2])}
		rest := body[8:]
		switch msg.Kind {
		case StatsFlow:
			if len(rest) < 32 {
				return nil, fmt.Errorf("%w: flow stats request", ErrBadMessage)
			}
			m, _, err := decodeMatch13(rest[32:])
			if err != nil {
				return nil, err
			}
			msg.Match = m
		case StatsPort:
			if len(rest) < 4 {
				return nil, fmt.Errorf("%w: port stats request", ErrBadMessage)
			}
			msg.Port = binary.BigEndian.Uint32(rest[0:4])
		}
		return msg, nil
	case of13MultipartRep:
		if len(body) < 8 {
			return nil, fmt.Errorf("%w: multipart body", ErrBadMessage)
		}
		msg := &StatsReply{Header: h, Kind: binary.BigEndian.Uint16(body[0:2])}
		rest := body[8:]
		switch msg.Kind {
		case StatsFlow:
			for len(rest) >= 48 {
				entryLen := int(binary.BigEndian.Uint16(rest[0:2]))
				if entryLen < 48 || entryLen > len(rest) {
					return nil, fmt.Errorf("%w: flow stats entry", ErrBadMessage)
				}
				var fl FlowStats
				fl.TableID = rest[2]
				fl.DurationSec = binary.BigEndian.Uint32(rest[4:8])
				fl.Priority = binary.BigEndian.Uint16(rest[12:14])
				fl.Cookie = binary.BigEndian.Uint64(rest[24:32])
				fl.PacketCount = binary.BigEndian.Uint64(rest[32:40])
				fl.ByteCount = binary.BigEndian.Uint64(rest[40:48])
				m, consumed, err := decodeMatch13(rest[48:entryLen])
				if err != nil {
					return nil, err
				}
				fl.Match = m
				irest := rest[48+consumed : entryLen]
				for len(irest) >= 4 {
					itype := binary.BigEndian.Uint16(irest[0:2])
					ilen := int(binary.BigEndian.Uint16(irest[2:4]))
					if ilen < 8 || ilen > len(irest) {
						break
					}
					if itype == instrApplyActions {
						actions, err := decodeActions13(irest[8:ilen])
						if err != nil {
							return nil, err
						}
						fl.Actions = append(fl.Actions, actions...)
					}
					irest = irest[ilen:]
				}
				msg.Flows = append(msg.Flows, fl)
				rest = rest[entryLen:]
			}
		case StatsPort:
			for len(rest) >= 112 {
				var ps PortStats
				ps.PortNo = binary.BigEndian.Uint32(rest[0:4])
				ps.RxPackets = binary.BigEndian.Uint64(rest[8:16])
				ps.TxPackets = binary.BigEndian.Uint64(rest[16:24])
				ps.RxBytes = binary.BigEndian.Uint64(rest[24:32])
				ps.TxBytes = binary.BigEndian.Uint64(rest[32:40])
				ps.RxDropped = binary.BigEndian.Uint64(rest[40:48])
				ps.TxDropped = binary.BigEndian.Uint64(rest[48:56])
				msg.Ports = append(msg.Ports, ps)
				rest = rest[112:]
			}
		case StatsPortDesc:
			for len(rest) >= 64 {
				p, err := decodePort13(rest[:64])
				if err != nil {
					return nil, err
				}
				msg.PortDescs = append(msg.PortDescs, p)
				rest = rest[64:]
			}
		}
		return msg, nil
	}
	return nil, fmt.Errorf("%w: type %d", ErrBadMessage, typ)
}
