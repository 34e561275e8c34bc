package driver

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"yanc/internal/faultnet"
	"yanc/internal/openflow"
	"yanc/internal/yancfs"
)

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (ctrl, sw net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sw, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, sw
}

// oneByteConn hands the driver at most one byte per Read.
type oneByteConn struct{ net.Conn }

func (c oneByteConn) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return c.Conn.Read(p)
}

// encode10 is the OF 1.0 wire form of a message the test built itself.
func encode10(m openflow.Message) []byte {
	b, err := openflow.Codec10{}.Encode(m)
	if err != nil {
		panic(err)
	}
	return b
}

// attachScripted attaches ctrl to d against a hand-written OF 1.0 switch
// on sw, which sends tail in the same segment as the FeaturesReply that
// ends the handshake. It returns the attached connection and the
// switch's framing of its own end.
func attachScripted(t *testing.T, d *Driver, ctrl, sw net.Conn, tail []byte) (*SwitchConn, *openflow.Conn) {
	t.Helper()
	swc := openflow.NewConn(sw)
	swc.SetCodec(openflow.Codec10{})
	reply := &openflow.FeaturesReply{DatapathID: 1, NTables: 1, Ports: []openflow.PortInfo{{No: 1, Name: "p1"}}}
	hsErr := make(chan error, 1)
	go func() {
		hsErr <- func() error {
			if err := swc.Write(&openflow.Hello{MaxVersion: openflow.Version10}); err != nil {
				return err
			}
			for {
				msg, err := swc.Read()
				if err != nil {
					return err
				}
				if _, ok := msg.(*openflow.FeaturesRequest); !ok {
					continue
				}
				reply.Xid = msg.XID()
				_, err = sw.Write(append(encode10(reply), tail...))
				return err
			}
		}()
	}()
	sc, err := d.Attach(ctrl)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := <-hsErr; err != nil {
		t.Fatalf("switch handshake: %v", err)
	}
	return sc, swc
}

// TestReadLoopEveryTransport runs one framing script over every kind of
// transport the driver is handed. The reader is sequential, so once the
// switch has the reply to an EchoRequest it sent last, every earlier
// frame has been dispatched — and rxMsgs counts dispatches, so equality
// means exactly once.
func TestReadLoopEveryTransport(t *testing.T) {
	transports := []struct {
		name string
		dial func(t *testing.T) (ctrl, sw net.Conn)
	}{
		{"pipe", func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }},
		{"faultnet", func(t *testing.T) (net.Conn, net.Conn) {
			ctrl, sw := tcpPair(t)
			return faultnet.New(1).Wrap(ctrl), sw
		}},
		{"tcp", tcpPair},
	}
	pktIn := func(xid uint32) *openflow.PacketIn {
		return &openflow.PacketIn{Header: openflow.Header{Xid: xid}, BufferID: openflow.NoBuffer,
			InPort: 1, TotalLen: 14, Data: make([]byte, 14)}
	}
	portUp := &openflow.PortStatus{Header: openflow.Header{Xid: 7}, Reason: openflow.PortAdded,
		Port: openflow.PortInfo{No: 7, Name: "p7"}}
	cases := []struct {
		name      string
		oneByte   bool     // the driver's Reads return one byte each
		leftover  []byte   // rides in the FeaturesReply segment
		segments  [][]byte // one Write each, after the handshake
		wantMsgs  uint64   // dispatches, not counting the sentinel
		wantPktIn uint64   // of which packet-ins
		wantPort7 bool     // portUp must have reached the port files
		tornDown  bool     // the script must kill the connection
	}{
		{
			name:     "one byte per read",
			oneByte:  true,
			segments: [][]byte{encode10(pktIn(1)), encode10(portUp), encode10(pktIn(2))},
			wantMsgs: 3, wantPktIn: 2, wantPort7: true,
		},
		{
			name:     "two frames in one segment",
			segments: [][]byte{append(encode10(pktIn(1)), encode10(portUp)...)},
			wantMsgs: 2, wantPktIn: 1, wantPort7: true,
		},
		{
			name:     "handshake leftovers then packet-in",
			leftover: encode10(pktIn(1)),
			segments: [][]byte{encode10(pktIn(2))},
			wantMsgs: 2, wantPktIn: 2,
		},
		{
			name:     "header length below 8",
			segments: [][]byte{{openflow.Version10, byte(openflow.MsgPacketIn), 0, 4, 0, 0, 0, 1}},
			tornDown: true,
		},
	}
	for _, tr := range transports {
		for _, tc := range cases {
			tr, tc := tr, tc
			t.Run(tr.name+"/"+tc.name, func(t *testing.T) {
				y, err := yancfs.New()
				if err != nil {
					t.Fatal(err)
				}
				d := New(y)
				d.EchoInterval = 0 // the only echo on the wire is the script's sentinel
				defer d.Close()
				ctrl, sw := tr.dial(t)
				defer sw.Close()
				if tc.oneByte {
					ctrl = oneByteConn{ctrl}
				}
				sc, swc := attachScripted(t, d, ctrl, sw, tc.leftover)
				for _, seg := range tc.segments {
					if _, err := sw.Write(seg); err != nil {
						t.Fatal(err)
					}
				}
				if tc.tornDown {
					select {
					case <-sc.Done():
					case <-time.After(5 * time.Second):
						t.Fatal("malformed header did not tear the connection down")
					}
					eventually(t, "status disconnected", func() bool {
						s, _ := y.Root().ReadString("/switches/sw1/status")
						return s == "disconnected"
					})
					return
				}
				const sentinel = 0xec40
				if _, err := sw.Write(encode10(&openflow.EchoRequest{Header: openflow.Header{Xid: sentinel}})); err != nil {
					t.Fatal(err)
				}
				_ = sw.SetReadDeadline(time.Now().Add(5 * time.Second))
				for {
					msg, err := swc.Read()
					if err != nil {
						t.Fatalf("waiting for the sentinel's echo reply: %v", err)
					}
					if _, ok := msg.(*openflow.EchoReply); ok && msg.XID() == sentinel {
						break
					}
				}
				if got := sc.rxMsgs.Load(); got != tc.wantMsgs+1 {
					t.Errorf("dispatched %d messages, want %d", got, tc.wantMsgs+1)
				}
				if got := sc.pktinSeen.Load(); got != tc.wantPktIn {
					t.Errorf("dispatched %d packet-ins, want %d", got, tc.wantPktIn)
				}
				if s, _ := y.Root().ReadString("/switches/sw1/ports/7/name"); tc.wantPort7 && s != "p7" {
					t.Errorf("port-status not applied: ports/7/name = %q", s)
				}
			})
		}
	}
}

// TestCloseJoinsReaders pins that Driver.Close returns only after every
// connection's reader has: a reader held inside a message handler (here
// touchLastSeen, blocked in the driver clock on its way to writing
// last_seen) must finish its file-system write before Close returns, not
// after. The file-system clock runs on every mutation, so it is the
// probe for "a write landed".
func TestCloseJoinsReaders(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	var closeReturned atomic.Bool
	var lateWrites atomic.Int32
	y.VFS().SetClock(func() time.Time {
		if closeReturned.Load() {
			lateWrites.Add(1)
		}
		return time.Unix(1, 0)
	})
	d := New(y)
	d.EchoInterval = 0
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	d.Clock = func() time.Time {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return time.Unix(2, 0)
	}
	ctrl, sw := net.Pipe()
	defer sw.Close()
	attachScripted(t, d, ctrl, sw, nil)

	armed.Store(true)
	if _, err := sw.Write(encode10(&openflow.EchoReply{Header: openflow.Header{Xid: 1}})); err != nil {
		t.Fatal(err)
	}
	<-entered
	closed := make(chan struct{})
	go func() {
		d.Close()
		closeReturned.Store(true)
		close(closed)
	}()
	// A Close that joins the reader cannot return before release; one
	// that does not returns at once. Either way the reader is released
	// next and the late-write probe decides.
	select {
	case <-closed:
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-closed
	// Leave a reader Close failed to join time to reach its write.
	for deadline := time.Now().Add(100 * time.Millisecond); lateWrites.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := lateWrites.Load(); n != 0 {
		t.Fatalf("%d file-system writes landed after Driver.Close returned", n)
	}
}
