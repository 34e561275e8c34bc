// Package ethernet is a small packet encode/decode library in the style
// of gopacket: every layer has DecodeFromBytes and AppendTo methods, no
// hidden allocation, big-endian wire format. It covers exactly the
// protocols the yanc system applications need — Ethernet, 802.1Q VLAN,
// ARP, IPv4, TCP, UDP, ICMP echo, and LLDP for topology discovery.
package ethernet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrTruncated reports a buffer too short for the layer being decoded.
var ErrTruncated = errors.New("ethernet: truncated packet")

// ErrBadFormat reports a structurally invalid field.
var ErrBadFormat = errors.New("ethernet: bad format")

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones MAC address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// LLDPMulticast is the nearest-bridge LLDP destination address.
var LLDPMulticast = MAC{0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e}

// String formats the address as aa:bb:cc:dd:ee:ff.
func (m MAC) String() string {
	return string(m.AppendString(make([]byte, 0, 17)))
}

// AppendString appends the colon-separated hex form to dst and returns
// the extended slice.
//
//yancvet:hotalloc
func (m MAC) AppendString(dst []byte) []byte {
	const hex = "0123456789abcdef"
	for i, b := range m {
		if i > 0 {
			dst = append(dst, ':')
		}
		dst = append(dst, hex[b>>4], hex[b&0xf])
	}
	return dst
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// ParseMAC parses aa:bb:cc:dd:ee:ff (also accepts '-' separators).
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if !parseOctets(m[:], s, 16, ":-") {
		return m, fmt.Errorf("%w: mac %q", ErrBadFormat, s)
	}
	return m, nil
}

// parseOctets fills dst from s, which must hold exactly len(dst) numbers
// in the given base, each fitting a byte, separated by single characters
// from seps. It scans in place: flow read-back parses an address per
// match file and must not pay a split per address.
func parseOctets(dst []byte, s string, base int, seps string) bool {
	for i := range dst {
		part := s
		if i < len(dst)-1 {
			j := strings.IndexAny(s, seps)
			if j < 0 {
				return false
			}
			part, s = s[:j], s[j+1:]
		}
		v, err := strconv.ParseUint(part, base, 8)
		if err != nil {
			return false
		}
		dst[i] = byte(v)
	}
	return true
}

// MACFromUint64 builds a MAC from the low 48 bits of v; handy for
// assigning deterministic addresses in simulations.
func MACFromUint64(v uint64) MAC {
	var m MAC
	m[0] = byte(v >> 40)
	m[1] = byte(v >> 32)
	m[2] = byte(v >> 24)
	m[3] = byte(v >> 16)
	m[4] = byte(v >> 8)
	m[5] = byte(v)
	return m
}

// Uint64 returns the address as an integer.
func (m MAC) Uint64() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// IP4 is an IPv4 address.
type IP4 [4]byte

// String formats the address in dotted quad.
func (ip IP4) String() string {
	return string(ip.AppendString(make([]byte, 0, 15)))
}

// AppendString appends the dotted-quad form to dst and returns the
// extended slice — the no-Sprintf renderer bulk flow writers use.
//
//yancvet:hotalloc
func (ip IP4) AppendString(dst []byte) []byte {
	for i, b := range ip {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendUint(dst, uint64(b), 10)
	}
	return dst
}

// Uint32 returns the address as a big-endian integer.
func (ip IP4) Uint32() uint32 { return binary.BigEndian.Uint32(ip[:]) }

// IP4FromUint32 builds an address from a big-endian integer.
func IP4FromUint32(v uint32) IP4 {
	var ip IP4
	binary.BigEndian.PutUint32(ip[:], v)
	return ip
}

// ParseIP4 parses dotted-quad notation.
func ParseIP4(s string) (IP4, error) {
	var ip IP4
	if !parseOctets(ip[:], s, 10, ".") {
		return ip, fmt.Errorf("%w: ip %q", ErrBadFormat, s)
	}
	return ip, nil
}

// Prefix is an IPv4 CIDR prefix; yanc match files such as match.nw_src
// "take the CIDR notation" (§3.4).
type Prefix struct {
	Addr IP4
	Bits uint8 // 0..32
}

// ParsePrefix parses "a.b.c.d/len"; a bare address means /32.
func ParsePrefix(s string) (Prefix, error) {
	addr, bits, found := strings.Cut(s, "/")
	ip, err := ParseIP4(addr)
	if err != nil {
		return Prefix{}, err
	}
	n := 32
	if found {
		n, err = strconv.Atoi(bits)
		if err != nil || n < 0 || n > 32 {
			return Prefix{}, fmt.Errorf("%w: prefix %q", ErrBadFormat, s)
		}
	}
	return Prefix{Addr: ip, Bits: uint8(n)}, nil
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	return string(p.AppendString(make([]byte, 0, 18)))
}

// AppendString appends the CIDR form to dst and returns the extended
// slice.
//
//yancvet:hotalloc
func (p Prefix) AppendString(dst []byte) []byte {
	dst = p.Addr.AppendString(dst)
	dst = append(dst, '/')
	return strconv.AppendInt(dst, int64(p.Bits), 10)
}

// Mask returns the prefix netmask as an integer.
func (p Prefix) Mask() uint32 {
	if p.Bits == 0 {
		return 0
	}
	return ^uint32(0) << (32 - p.Bits)
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP4) bool {
	return ip.Uint32()&p.Mask() == p.Addr.Uint32()&p.Mask()
}

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// Well-known EtherTypes.
const (
	TypeIPv4 EtherType = 0x0800
	TypeARP  EtherType = 0x0806
	TypeVLAN EtherType = 0x8100
	TypeLLDP EtherType = 0x88cc
)

func (t EtherType) String() string {
	switch t {
	case TypeIPv4:
		return "ipv4"
	case TypeARP:
		return "arp"
	case TypeVLAN:
		return "vlan"
	case TypeLLDP:
		return "lldp"
	default:
		return fmt.Sprintf("0x%04x", uint16(t))
	}
}

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)
