// Package openflow implements the OpenFlow control protocol: a
// version-neutral message model plus wire codecs for OpenFlow 1.0 and an
// OpenFlow 1.3 subset (OXM matches, instructions). Drivers translate
// between these messages and the yanc file system; the simulated switches
// speak the same bytes a hardware switch would.
//
// Encoding follows the gopacket idiom: AppendTo/Decode functions over
// byte slices, big-endian, no reflection.
package openflow

import (
	"fmt"
	"strconv"
	"strings"

	"yanc/internal/ethernet"
)

// MsgType is the version-neutral message discriminator.
type MsgType uint8

// Message kinds shared by both protocol versions.
const (
	MsgHello MsgType = iota
	MsgError
	MsgEchoRequest
	MsgEchoReply
	MsgFeaturesRequest
	MsgFeaturesReply
	MsgPacketIn
	MsgFlowRemoved
	MsgPortStatus
	MsgPacketOut
	MsgFlowMod
	MsgBarrierRequest
	MsgBarrierReply
	MsgStatsRequest
	MsgStatsReply
	MsgPortMod
)

func (t MsgType) String() string {
	names := [...]string{
		"HELLO", "ERROR", "ECHO_REQUEST", "ECHO_REPLY",
		"FEATURES_REQUEST", "FEATURES_REPLY", "PACKET_IN", "FLOW_REMOVED",
		"PORT_STATUS", "PACKET_OUT", "FLOW_MOD",
		"BARRIER_REQUEST", "BARRIER_REPLY", "STATS_REQUEST", "STATS_REPLY",
		"PORT_MOD",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("MSG(%d)", uint8(t))
}

// Message is any OpenFlow message in the neutral model.
type Message interface {
	Type() MsgType
	XID() uint32
	SetXID(uint32)
}

// Header carries the transaction id every message has.
type Header struct {
	Xid uint32
}

// XID returns the transaction id.
func (h *Header) XID() uint32 { return h.Xid }

// SetXID sets the transaction id.
func (h *Header) SetXID(x uint32) { h.Xid = x }

// Hello opens the version negotiation.
type Hello struct {
	Header
	// MaxVersion is the highest protocol version the sender supports
	// (the header version byte on the wire).
	MaxVersion uint8
}

// Type implements Message.
func (*Hello) Type() MsgType { return MsgHello }

// Error reports a protocol error.
type Error struct {
	Header
	Code uint32 // encoded as type<<16|code on the wire
	Data []byte
}

// Type implements Message.
func (*Error) Type() MsgType { return MsgError }

// EchoRequest is a liveness probe.
type EchoRequest struct {
	Header
	Data []byte
}

// Type implements Message.
func (*EchoRequest) Type() MsgType { return MsgEchoRequest }

// EchoReply answers an EchoRequest.
type EchoReply struct {
	Header
	Data []byte
}

// Type implements Message.
func (*EchoReply) Type() MsgType { return MsgEchoReply }

// FeaturesRequest asks for the switch datapath description.
type FeaturesRequest struct{ Header }

// Type implements Message.
func (*FeaturesRequest) Type() MsgType { return MsgFeaturesRequest }

// PortConfig bits (subset shared between versions).
const (
	PortConfigDown  uint32 = 1 << 0
	PortConfigNoRx  uint32 = 1 << 2
	PortConfigNoFwd uint32 = 1 << 5
)

// PortState bits.
const (
	PortStateLinkDown uint32 = 1 << 0
)

// PortInfo describes one switch port.
type PortInfo struct {
	No        uint32
	HWAddr    ethernet.MAC
	Name      string
	Config    uint32
	State     uint32
	CurrSpeed uint32 // kbps
}

// FeaturesReply describes the datapath. In OF 1.0 ports ride along; in
// OF 1.3 they are fetched via a PortDesc stats request, and the codec
// performs that split transparently.
type FeaturesReply struct {
	Header
	DatapathID   uint64
	NBuffers     uint32
	NTables      uint8
	Capabilities uint32
	Ports        []PortInfo // empty on the wire for OF 1.3
}

// Type implements Message.
func (*FeaturesReply) Type() MsgType { return MsgFeaturesReply }

// PacketIn reasons.
const (
	ReasonNoMatch = 0
	ReasonAction  = 1
)

// PacketIn delivers a packet (or its prefix) to the controller.
type PacketIn struct {
	Header
	BufferID uint32
	TotalLen uint16
	InPort   uint32
	TableID  uint8
	Reason   uint8
	Data     []byte
}

// Type implements Message.
func (*PacketIn) Type() MsgType { return MsgPacketIn }

// Flow-removed reasons.
const (
	RemovedIdleTimeout = 0
	RemovedHardTimeout = 1
	RemovedDelete      = 2
)

// FlowRemoved notifies that a flow expired or was deleted.
type FlowRemoved struct {
	Header
	Match       Match
	Cookie      uint64
	Priority    uint16
	Reason      uint8
	TableID     uint8
	DurationSec uint32
	PacketCount uint64
	ByteCount   uint64
}

// Type implements Message.
func (*FlowRemoved) Type() MsgType { return MsgFlowRemoved }

// Port-status reasons.
const (
	PortAdded    = 0
	PortDeleted  = 1
	PortModified = 2
)

// PortStatus reports a port change.
type PortStatus struct {
	Header
	Reason uint8
	Port   PortInfo
}

// Type implements Message.
func (*PortStatus) Type() MsgType { return MsgPortStatus }

// PacketOut injects a packet into the dataplane.
type PacketOut struct {
	Header
	BufferID uint32
	InPort   uint32
	Actions  []Action
	Data     []byte
}

// ParsePacketOutSpec parses the packet_out control file's header line:
// "out=<port>[,<more actions>] [in_port=<n>] [buffer_id=<id>]". Every
// token that is not in_port or buffer_id is an action list in the comma
// form the flow files use (ParseActions).
// The returned message has no payload; callers attach Data themselves.
func ParsePacketOutSpec(head string) (*PacketOut, error) {
	po := &PacketOut{
		BufferID: NoBuffer,
		InPort:   PortController,
	}
	for _, tok := range strings.Fields(head) {
		k, v, _ := strings.Cut(tok, "=")
		switch k {
		case "in_port":
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("openflow: packet_out in_port %q: %w", v, err)
			}
			po.InPort = uint32(n)
		case "buffer_id":
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("openflow: packet_out buffer_id %q: %w", v, err)
			}
			po.BufferID = uint32(n)
		default:
			as, err := ParseActions(tok)
			if err != nil {
				return nil, err
			}
			po.Actions = append(po.Actions, as...)
		}
	}
	if len(po.Actions) == 0 {
		return nil, fmt.Errorf("openflow: packet_out needs an action")
	}
	return po, nil
}

// Type implements Message.
func (*PacketOut) Type() MsgType { return MsgPacketOut }

// Flow-mod commands.
const (
	FlowAdd          = 0
	FlowModify       = 1
	FlowModifyStrict = 2
	FlowDelete       = 3
	FlowDeleteStrict = 4
)

// Flow-mod flags.
const (
	FlagSendFlowRem uint16 = 1 << 0
)

// FlowMod installs, modifies, or deletes flow entries.
type FlowMod struct {
	Header
	TableID     uint8 // OF 1.3 only; 0 under OF 1.0
	Command     uint8
	Match       Match
	Cookie      uint64
	IdleTimeout uint16
	HardTimeout uint16
	Priority    uint16
	BufferID    uint32
	OutPort     uint32
	Flags       uint16
	Actions     []Action
}

// Type implements Message.
func (*FlowMod) Type() MsgType { return MsgFlowMod }

// PortMod changes a port's configuration; the driver sends one when an
// administrator writes a port's config.port_down file.
type PortMod struct {
	Header
	PortNo uint32
	HWAddr ethernet.MAC
	Config uint32
	Mask   uint32
}

// Type implements Message.
func (*PortMod) Type() MsgType { return MsgPortMod }

// BarrierRequest forces ordering.
type BarrierRequest struct{ Header }

// Type implements Message.
func (*BarrierRequest) Type() MsgType { return MsgBarrierRequest }

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply struct{ Header }

// Type implements Message.
func (*BarrierReply) Type() MsgType { return MsgBarrierReply }

// Stats kinds (neutral). The values match the OF 1.3 multipart types;
// OF 1.0 shares the Flow and Port values and has no PortDesc (ports ride
// in its FeaturesReply instead).
const (
	StatsFlow     = 1
	StatsPort     = 4
	StatsPortDesc = 13
)

// StatsRequest asks for flow or port statistics.
type StatsRequest struct {
	Header
	Kind  uint16
	Match Match  // for StatsFlow
	Port  uint32 // for StatsPort; PortAny = all
}

// Type implements Message.
func (*StatsRequest) Type() MsgType { return MsgStatsRequest }

// FlowStats is one flow's counters.
type FlowStats struct {
	TableID     uint8
	Match       Match
	Priority    uint16
	Cookie      uint64
	DurationSec uint32
	PacketCount uint64
	ByteCount   uint64
	Actions     []Action
}

// PortStats is one port's counters.
type PortStats struct {
	PortNo    uint32
	RxPackets uint64
	TxPackets uint64
	RxBytes   uint64
	TxBytes   uint64
	RxDropped uint64
	TxDropped uint64
}

// StatsReply carries statistics.
type StatsReply struct {
	Header
	Kind      uint16
	Flows     []FlowStats
	Ports     []PortStats
	PortDescs []PortInfo // StatsPortDesc (OF 1.3)
}

// Type implements Message.
func (*StatsReply) Type() MsgType { return MsgStatsReply }
