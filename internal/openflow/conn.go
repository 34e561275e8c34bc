package openflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// maxMessageSize bounds a single OpenFlow message (the 16-bit length field
// allows 65535; we accept exactly that).
const maxMessageSize = 0xffff

// Conn frames OpenFlow messages over a byte stream. It is safe for one
// concurrent reader and any number of writers.
type Conn struct {
	rw      io.ReadWriter
	br      *bufio.Reader
	codec   Codec
	writeMu sync.Mutex
	nextXID atomic.Uint32
	closer  io.Closer
}

// NewConn wraps a stream. The codec is chosen during Handshake; callers
// that skip handshaking must call SetCodec.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{rw: rw, br: bufio.NewReaderSize(rw, 1<<16)}
	if cl, ok := rw.(io.Closer); ok {
		c.closer = cl
	}
	return c
}

// SetCodec fixes the protocol version codec.
func (c *Conn) SetCodec(codec Codec) { c.codec = codec }

// Codec returns the negotiated codec (nil before handshake).
//
//yancvet:hotalloc
func (c *Conn) Codec() Codec { return c.codec }

// Version returns the negotiated wire version (0 before handshake).
func (c *Conn) Version() uint8 {
	if c.codec == nil {
		return 0
	}
	return c.codec.Version()
}

// NewXID allocates a fresh transaction id.
//
//yancvet:hotalloc
func (c *Conn) NewXID() uint32 { return c.nextXID.Add(1) }

// ReadRaw reads one whole framed message (header + body) without
// decoding it.
func (c *Conn) ReadRaw() ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < 8 || length > maxMessageSize {
		return nil, fmt.Errorf("%w: frame length %d", ErrBadMessage, length)
	}
	buf := make([]byte, length)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(c.br, buf[8:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// Read reads and decodes the next message.
func (c *Conn) Read() (Message, error) {
	raw, err := c.ReadRaw()
	if err != nil {
		return nil, err
	}
	return c.Decode(raw)
}

// Decode decodes one already-framed message with the negotiated codec,
// falling back to the frame's own version byte exactly as Read does.
// Callers that frame with ReadRaw decode through this so
// version-mismatch handling stays in one place.
func (c *Conn) Decode(raw []byte) (Message, error) {
	if len(raw) < 8 {
		return nil, fmt.Errorf("%w: short frame", ErrBadMessage)
	}
	if c.codec == nil || raw[0] != c.codec.Version() {
		codec, err := NewCodec(raw[0])
		if err != nil {
			return nil, err
		}
		return codec.Decode(raw)
	}
	return c.codec.Decode(raw)
}

// Write encodes and sends a message, assigning an xid if none is set.
func (c *Conn) Write(m Message) error {
	if c.codec == nil {
		return fmt.Errorf("%w: no codec negotiated", ErrBadMessage)
	}
	if m.XID() == 0 {
		m.SetXID(c.NewXID())
	}
	b, err := c.codec.Encode(m)
	if err != nil {
		return err
	}
	return c.WriteRaw(b)
}

// WriteRaw sends whole messages the caller has already encoded (with
// Codec.AppendEncode, xids assigned) in one write. A sender with several
// messages for one peer builds them in a buffer of its own, holding no
// lock of this connection while it does, and pays one write for the lot;
// the bytes go out between other writers' messages, never inside one.
//
//yancvet:hotalloc
func (c *Conn) WriteRaw(b []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_, err := c.rw.Write(b)
	return err
}

// Close closes the underlying stream if it supports closing.
func (c *Conn) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

// negotiate picks the common version: min(ours, theirs), which is correct
// for OpenFlow's version-field negotiation.
func negotiate(ours, theirs uint8) (Codec, error) {
	v := ours
	if theirs < v {
		v = theirs
	}
	return NewCodec(v)
}

// HandshakeController performs the controller-side handshake: exchange
// HELLO, negotiate the version, request features, and (for OF 1.3) fetch
// the port descriptions so the returned FeaturesReply always carries
// ports. This is exactly the sequence a yanc driver runs when a switch
// connects.
func (c *Conn) HandshakeController(maxVersion uint8) (*FeaturesReply, error) {
	tmp, err := NewCodec(maxVersion)
	if err != nil {
		return nil, err
	}
	c.codec = tmp
	// Both peers send HELLO immediately; send concurrently with the read
	// so unbuffered transports (net.Pipe) cannot deadlock.
	helloErr := make(chan error, 1)
	go func() { helloErr <- c.Write(&Hello{MaxVersion: maxVersion}) }()
	msg, err := c.Read()
	if err != nil {
		return nil, err
	}
	if err := <-helloErr; err != nil {
		return nil, err
	}
	hello, ok := msg.(*Hello)
	if !ok {
		return nil, fmt.Errorf("%w: expected HELLO, got %v", ErrBadMessage, msg.Type())
	}
	codec, err := negotiate(maxVersion, hello.MaxVersion)
	if err != nil {
		return nil, err
	}
	c.codec = codec
	if err := c.Write(&FeaturesRequest{}); err != nil {
		return nil, err
	}
	var features *FeaturesReply
	for features == nil {
		msg, err := c.Read()
		if err != nil {
			return nil, err
		}
		switch m := msg.(type) {
		case *FeaturesReply:
			features = m
		case *EchoRequest:
			if err := c.Write(&EchoReply{Header: Header{Xid: m.Xid}, Data: m.Data}); err != nil {
				return nil, err
			}
		default:
			// Ignore anything else during handshake.
		}
	}
	if codec.Version() >= Version13 && len(features.Ports) == 0 {
		if err := c.Write(&StatsRequest{Kind: StatsPortDesc}); err != nil {
			return nil, err
		}
		for {
			msg, err := c.Read()
			if err != nil {
				return nil, err
			}
			if rep, ok := msg.(*StatsReply); ok && rep.Kind == StatsPortDesc {
				features.Ports = rep.PortDescs
				break
			}
		}
	}
	return features, nil
}

// HandshakeSwitch performs the switch-side handshake: exchange HELLO,
// negotiate, then answer the features request with the supplied reply
// (and, under OF 1.3, answer the follow-up port-desc request). The
// simulated datapath calls this when it connects to a controller.
func (c *Conn) HandshakeSwitch(maxVersion uint8, features *FeaturesReply) error {
	tmp, err := NewCodec(maxVersion)
	if err != nil {
		return err
	}
	c.codec = tmp
	helloErr := make(chan error, 1)
	go func() { helloErr <- c.Write(&Hello{MaxVersion: maxVersion}) }()
	msg, err := c.Read()
	if err != nil {
		return err
	}
	if err := <-helloErr; err != nil {
		return err
	}
	hello, ok := msg.(*Hello)
	if !ok {
		return fmt.Errorf("%w: expected HELLO, got %v", ErrBadMessage, msg.Type())
	}
	codec, err := negotiate(maxVersion, hello.MaxVersion)
	if err != nil {
		return err
	}
	c.codec = codec
	for {
		msg, err := c.Read()
		if err != nil {
			return err
		}
		if _, ok := msg.(*FeaturesRequest); ok {
			reply := *features
			reply.Xid = msg.XID()
			if err := c.Write(&reply); err != nil {
				return err
			}
			break
		}
	}
	if codec.Version() >= Version13 {
		// The controller asks for port descriptions next; answer once.
		msg, err := c.Read()
		if err != nil {
			return err
		}
		if req, ok := msg.(*StatsRequest); ok && req.Kind == StatsPortDesc {
			rep := &StatsReply{Kind: StatsPortDesc, PortDescs: features.Ports}
			rep.Xid = msg.XID()
			return c.Write(rep)
		}
	}
	return nil
}
