package openflow

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"yanc/internal/ethernet"
)

// Field identifies one matchable header field. The names mirror the
// match.* file names in the yanc flow representation (§3.4).
type Field uint16

// Match fields.
const (
	FieldInPort Field = 1 << iota
	FieldDLSrc
	FieldDLDst
	FieldDLType
	FieldDLVLAN
	FieldDLVLANPCP
	FieldNWTos
	FieldNWProto
	FieldNWSrc
	FieldNWDst
	FieldTPSrc
	FieldTPDst
)

var fieldNames = map[Field]string{
	FieldInPort:    "in_port",
	FieldDLSrc:     "dl_src",
	FieldDLDst:     "dl_dst",
	FieldDLType:    "dl_type",
	FieldDLVLAN:    "dl_vlan",
	FieldDLVLANPCP: "dl_vlan_pcp",
	FieldNWTos:     "nw_tos",
	FieldNWProto:   "nw_proto",
	FieldNWSrc:     "nw_src",
	FieldNWDst:     "nw_dst",
	FieldTPSrc:     "tp_src",
	FieldTPDst:     "tp_dst",
}

// AllFields lists every field in canonical order.
var AllFields = []Field{
	FieldInPort, FieldDLSrc, FieldDLDst, FieldDLType, FieldDLVLAN,
	FieldDLVLANPCP, FieldNWTos, FieldNWProto, FieldNWSrc, FieldNWDst,
	FieldTPSrc, FieldTPDst,
}

// Name returns the yanc file-name spelling of the field ("nw_src").
func (f Field) Name() string { return fieldNames[f] }

// FieldByName resolves a yanc match file name to its Field.
//
//yancvet:hotalloc
func FieldByName(name string) (Field, bool) {
	for f, n := range fieldNames {
		if n == name {
			return f, true
		}
	}
	return 0, false
}

// Match is the version-neutral flow match. Set records which fields
// participate; absence of a field means wildcard, exactly as the absence
// of a match.* file does in the file system (§3.4).
type Match struct {
	Set     Field
	InPort  uint32
	DLSrc   ethernet.MAC
	DLDst   ethernet.MAC
	DLType  uint16
	VLANID  uint16
	VLANPCP uint8
	NWTos   uint8
	NWProto uint8
	NWSrc   ethernet.Prefix
	NWDst   ethernet.Prefix
	TPSrc   uint16
	TPDst   uint16
}

// Has reports whether field f participates in the match.
//
//yancvet:hotalloc
func (m *Match) Has(f Field) bool { return m.Set&f != 0 }

// IsWildcardAll reports whether the match matches everything.
func (m *Match) IsWildcardAll() bool { return m.Set == 0 }

// SetField assigns a field from its yanc string representation, the same
// parsing a driver performs when reading match.* files.
func (m *Match) SetField(f Field, value string) error {
	value = strings.TrimSpace(value)
	switch f {
	case FieldInPort:
		v, err := strconv.ParseUint(value, 10, 32)
		if err != nil {
			return fmt.Errorf("openflow: in_port %q: %w", value, err)
		}
		m.InPort = uint32(v)
	case FieldDLSrc, FieldDLDst:
		mac, err := ethernet.ParseMAC(value)
		if err != nil {
			return err
		}
		if f == FieldDLSrc {
			m.DLSrc = mac
		} else {
			m.DLDst = mac
		}
	case FieldDLType:
		v, err := parseUintAuto(value, 16)
		if err != nil {
			return fmt.Errorf("openflow: dl_type %q: %w", value, err)
		}
		m.DLType = uint16(v)
	case FieldDLVLAN:
		v, err := strconv.ParseUint(value, 10, 12)
		if err != nil {
			return fmt.Errorf("openflow: dl_vlan %q: %w", value, err)
		}
		m.VLANID = uint16(v)
	case FieldDLVLANPCP:
		v, err := strconv.ParseUint(value, 10, 3)
		if err != nil {
			return fmt.Errorf("openflow: dl_vlan_pcp %q: %w", value, err)
		}
		m.VLANPCP = uint8(v)
	case FieldNWTos:
		v, err := strconv.ParseUint(value, 10, 8)
		if err != nil {
			return fmt.Errorf("openflow: nw_tos %q: %w", value, err)
		}
		m.NWTos = uint8(v)
	case FieldNWProto:
		v, err := strconv.ParseUint(value, 10, 8)
		if err != nil {
			return fmt.Errorf("openflow: nw_proto %q: %w", value, err)
		}
		m.NWProto = uint8(v)
	case FieldNWSrc, FieldNWDst:
		p, err := ethernet.ParsePrefix(value)
		if err != nil {
			return err
		}
		if f == FieldNWSrc {
			m.NWSrc = p
		} else {
			m.NWDst = p
		}
	case FieldTPSrc, FieldTPDst:
		v, err := strconv.ParseUint(value, 10, 16)
		if err != nil {
			return fmt.Errorf("openflow: tp port %q: %w", value, err)
		}
		if f == FieldTPSrc {
			m.TPSrc = uint16(v)
		} else {
			m.TPDst = uint16(v)
		}
	default:
		return fmt.Errorf("openflow: unknown match field %v", f)
	}
	m.Set |= f
	return nil
}

// FieldString renders a participating field back to its yanc file value.
func (m *Match) FieldString(f Field) string {
	switch f {
	case FieldInPort:
		return strconv.FormatUint(uint64(m.InPort), 10)
	case FieldDLSrc:
		return m.DLSrc.String()
	case FieldDLDst:
		return m.DLDst.String()
	case FieldDLType:
		return fmt.Sprintf("0x%04x", m.DLType)
	case FieldDLVLAN:
		return strconv.FormatUint(uint64(m.VLANID), 10)
	case FieldDLVLANPCP:
		return strconv.FormatUint(uint64(m.VLANPCP), 10)
	case FieldNWTos:
		return strconv.FormatUint(uint64(m.NWTos), 10)
	case FieldNWProto:
		return strconv.FormatUint(uint64(m.NWProto), 10)
	case FieldNWSrc:
		return m.NWSrc.String()
	case FieldNWDst:
		return m.NWDst.String()
	case FieldTPSrc:
		return strconv.FormatUint(uint64(m.TPSrc), 10)
	case FieldTPDst:
		return strconv.FormatUint(uint64(m.TPDst), 10)
	}
	return ""
}

// AppendField appends the FieldString rendering of f to dst and returns
// the extended slice. Bulk writers (the libyanc ring's flow renderer)
// use this to build every field value in one arena instead of one
// string allocation per field.
//
//yancvet:hotalloc
func (m *Match) AppendField(dst []byte, f Field) []byte {
	switch f {
	case FieldInPort:
		return strconv.AppendUint(dst, uint64(m.InPort), 10)
	case FieldDLSrc:
		return m.DLSrc.AppendString(dst)
	case FieldDLDst:
		return m.DLDst.AppendString(dst)
	case FieldDLType:
		dst = append(dst, '0', 'x')
		for shift := 12; shift >= 0; shift -= 4 {
			dst = append(dst, "0123456789abcdef"[m.DLType>>shift&0xf])
		}
		return dst
	case FieldDLVLAN:
		return strconv.AppendUint(dst, uint64(m.VLANID), 10)
	case FieldDLVLANPCP:
		return strconv.AppendUint(dst, uint64(m.VLANPCP), 10)
	case FieldNWTos:
		return strconv.AppendUint(dst, uint64(m.NWTos), 10)
	case FieldNWProto:
		return strconv.AppendUint(dst, uint64(m.NWProto), 10)
	case FieldNWSrc:
		return m.NWSrc.AppendString(dst)
	case FieldNWDst:
		return m.NWDst.AppendString(dst)
	case FieldTPSrc:
		return strconv.AppendUint(dst, uint64(m.TPSrc), 10)
	case FieldTPDst:
		return strconv.AppendUint(dst, uint64(m.TPDst), 10)
	}
	return dst
}

// String renders the match in a stable, human-readable form.
func (m Match) String() string {
	if m.Set == 0 {
		return "*"
	}
	var parts []string
	for _, f := range AllFields {
		if m.Has(f) {
			parts = append(parts, f.Name()+"="+m.FieldString(f))
		}
	}
	return strings.Join(parts, ",")
}

// Key returns a canonical identity string: two matches with the same key
// match exactly the same packets. Used for strict flow-mod matching.
func (m Match) Key() string { return m.String() }

// knownFields masks the bits of Set that name a field.
const knownFields = FieldTPDst<<1 - 1

// Equal reports whether two matches are identical: the same fields set,
// to the same values — exactly when their Keys are equal, without
// rendering either. Values of fields that are not set do not count.
//
//yancvet:hotalloc
func (m Match) Equal(o Match) bool {
	set := m.Set & knownFields
	return set == o.Set&knownFields &&
		(set&FieldInPort == 0 || m.InPort == o.InPort) &&
		(set&FieldDLSrc == 0 || m.DLSrc == o.DLSrc) &&
		(set&FieldDLDst == 0 || m.DLDst == o.DLDst) &&
		(set&FieldDLType == 0 || m.DLType == o.DLType) &&
		(set&FieldDLVLAN == 0 || m.VLANID == o.VLANID) &&
		(set&FieldDLVLANPCP == 0 || m.VLANPCP == o.VLANPCP) &&
		(set&FieldNWTos == 0 || m.NWTos == o.NWTos) &&
		(set&FieldNWProto == 0 || m.NWProto == o.NWProto) &&
		(set&FieldNWSrc == 0 || m.NWSrc == o.NWSrc) &&
		(set&FieldNWDst == 0 || m.NWDst == o.NWDst) &&
		(set&FieldTPSrc == 0 || m.TPSrc == o.TPSrc) &&
		(set&FieldTPDst == 0 || m.TPDst == o.TPDst)
}

// Covers reports whether every packet matched by o is matched by m
// (m is equal to or strictly more general than o). Used by non-strict
// flow delete and by the slicer to confine view flows.
func (m Match) Covers(o Match) bool {
	for _, f := range AllFields {
		if !m.Has(f) {
			continue
		}
		if !o.Has(f) {
			return false
		}
		switch f {
		case FieldNWSrc, FieldNWDst:
			mp, op := m.NWSrc, o.NWSrc
			if f == FieldNWDst {
				mp, op = m.NWDst, o.NWDst
			}
			if op.Bits < mp.Bits || !mp.Contains(op.Addr) {
				return false
			}
		default:
			if m.FieldString(f) != o.FieldString(f) {
				return false
			}
		}
	}
	return true
}

// MatchesPacket reports whether a parsed packet satisfies the match.
func (m *Match) MatchesPacket(pkt *PacketFields) bool {
	if m.Has(FieldInPort) && m.InPort != pkt.InPort {
		return false
	}
	if m.Has(FieldDLSrc) && m.DLSrc != pkt.DLSrc {
		return false
	}
	if m.Has(FieldDLDst) && m.DLDst != pkt.DLDst {
		return false
	}
	if m.Has(FieldDLVLAN) && m.VLANID != pkt.VLANID {
		return false
	}
	if m.Has(FieldDLVLANPCP) && m.VLANPCP != pkt.VLANPCP {
		return false
	}
	if m.Has(FieldDLType) && m.DLType != pkt.DLType {
		return false
	}
	if m.Has(FieldNWTos) && m.NWTos != pkt.NWTos {
		return false
	}
	if m.Has(FieldNWProto) && m.NWProto != pkt.NWProto {
		return false
	}
	if m.Has(FieldNWSrc) && !m.NWSrc.Contains(pkt.NWSrc) {
		return false
	}
	if m.Has(FieldNWDst) && !m.NWDst.Contains(pkt.NWDst) {
		return false
	}
	if m.Has(FieldTPSrc) && m.TPSrc != pkt.TPSrc {
		return false
	}
	if m.Has(FieldTPDst) && m.TPDst != pkt.TPDst {
		return false
	}
	return true
}

// Intersect returns the match satisfied exactly by packets matching both
// a and b — the operation a slicer uses to confine a view's flows to its
// header space (§4.2). It fails when the two are disjoint (a flow outside
// the slice).
func Intersect(a, b Match) (Match, error) {
	out := a
	for _, f := range AllFields {
		if !b.Has(f) {
			continue
		}
		if !a.Has(f) {
			// Adopt b's constraint.
			switch f {
			case FieldNWSrc:
				out.NWSrc = b.NWSrc
			case FieldNWDst:
				out.NWDst = b.NWDst
			default:
				if err := out.SetField(f, b.FieldString(f)); err != nil {
					return Match{}, err
				}
			}
			out.Set |= f
			continue
		}
		switch f {
		case FieldNWSrc, FieldNWDst:
			ap, bp := a.NWSrc, b.NWSrc
			if f == FieldNWDst {
				ap, bp = a.NWDst, b.NWDst
			}
			// The narrower prefix must sit inside the wider one.
			narrow, wide := ap, bp
			if bp.Bits > ap.Bits {
				narrow, wide = bp, ap
			}
			if !wide.Contains(narrow.Addr) {
				return Match{}, fmt.Errorf("openflow: disjoint %s: %v vs %v", f.Name(), ap, bp)
			}
			if f == FieldNWSrc {
				out.NWSrc = narrow
			} else {
				out.NWDst = narrow
			}
		default:
			if a.FieldString(f) != b.FieldString(f) {
				return Match{}, fmt.Errorf("openflow: disjoint %s: %s vs %s",
					f.Name(), a.FieldString(f), b.FieldString(f))
			}
		}
	}
	return out, nil
}

// PacketFields is the header tuple extracted from a packet for matching.
type PacketFields struct {
	InPort  uint32
	DLSrc   ethernet.MAC
	DLDst   ethernet.MAC
	DLType  uint16
	VLANID  uint16
	VLANPCP uint8
	NWTos   uint8
	NWProto uint8
	NWSrc   ethernet.IP4
	NWDst   ethernet.IP4
	TPSrc   uint16
	TPDst   uint16
}

// ExtractFields parses an Ethernet frame into the matchable tuple.
func ExtractFields(frame []byte, inPort uint32) (PacketFields, error) {
	var pf PacketFields
	pf.InPort = inPort
	f, err := ethernet.DecodeFrame(frame)
	if err != nil {
		return pf, err
	}
	pf.DLSrc = f.Src
	pf.DLDst = f.Dst
	pf.DLType = uint16(f.Type)
	pf.VLANID = f.VLANID
	pf.VLANPCP = f.VLANPCP
	switch f.Type {
	case ethernet.TypeIPv4:
		ip, err := ethernet.DecodeIPv4(f.Payload)
		if err != nil {
			return pf, nil // L2 fields still valid
		}
		pf.NWTos = ip.TOS
		pf.NWProto = ip.Protocol
		pf.NWSrc = ip.Src
		pf.NWDst = ip.Dst
		switch ip.Protocol {
		case ethernet.ProtoTCP:
			if t, err := ethernet.DecodeTCP(ip.Payload); err == nil {
				pf.TPSrc, pf.TPDst = t.SrcPort, t.DstPort
			}
		case ethernet.ProtoUDP:
			if u, err := ethernet.DecodeUDP(ip.Payload); err == nil {
				pf.TPSrc, pf.TPDst = u.SrcPort, u.DstPort
			}
		case ethernet.ProtoICMP:
			if ic, err := ethernet.DecodeICMPEcho(ip.Payload); err == nil {
				pf.TPSrc = uint16(ic.Type) // OF convention: icmp type/code in tp ports
			}
		}
	case ethernet.TypeARP:
		if a, err := ethernet.DecodeARP(f.Payload); err == nil {
			pf.NWProto = uint8(a.Op)
			pf.NWSrc = a.SenderIP
			pf.NWDst = a.TargetIP
		}
	}
	return pf, nil
}

// ExactMatch builds the fully-specified match for a packet, the shape the
// router daemon installs for table misses ("sets up paths based on exact
// match", §8).
func ExactMatch(pf PacketFields) Match {
	var m Match
	m.Set = FieldInPort | FieldDLSrc | FieldDLDst | FieldDLType
	m.InPort = pf.InPort
	m.DLSrc = pf.DLSrc
	m.DLDst = pf.DLDst
	m.DLType = pf.DLType
	if pf.VLANID != 0 {
		m.Set |= FieldDLVLAN | FieldDLVLANPCP
		m.VLANID = pf.VLANID
		m.VLANPCP = pf.VLANPCP
	}
	if pf.DLType == uint16(ethernet.TypeIPv4) || pf.DLType == uint16(ethernet.TypeARP) {
		m.Set |= FieldNWProto | FieldNWSrc | FieldNWDst
		m.NWProto = pf.NWProto
		m.NWSrc = ethernet.Prefix{Addr: pf.NWSrc, Bits: 32}
		m.NWDst = ethernet.Prefix{Addr: pf.NWDst, Bits: 32}
		if pf.NWProto == ethernet.ProtoTCP || pf.NWProto == ethernet.ProtoUDP {
			m.Set |= FieldTPSrc | FieldTPDst
			m.TPSrc = pf.TPSrc
			m.TPDst = pf.TPDst
		}
	}
	return m
}

// ParseMatch builds a Match from "field=value" pairs, the textual form
// the static flow pusher accepts.
func ParseMatch(spec string) (Match, error) {
	var m Match
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "*" {
		return m, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return m, fmt.Errorf("openflow: bad match element %q", kv)
		}
		f, ok := FieldByName(strings.TrimSpace(k))
		if !ok {
			return m, fmt.Errorf("openflow: unknown match field %q", k)
		}
		if err := m.SetField(f, v); err != nil {
			return m, err
		}
	}
	return m, nil
}

// SortedFieldNames returns the participating field names sorted, useful
// for deterministic file layouts.
func (m *Match) SortedFieldNames() []string {
	var names []string
	for _, f := range AllFields {
		if m.Has(f) {
			names = append(names, f.Name())
		}
	}
	sort.Strings(names)
	return names
}

func parseUintAuto(s string, bits int) (uint64, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseUint(s[2:], 16, bits)
	}
	return strconv.ParseUint(s, 10, bits)
}
