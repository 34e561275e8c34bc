package apps

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// DHCPd is the address-assignment daemon from the goals section's
// protocol-app trio (DHCP, ARP, LLDP): a separate process answering
// DISCOVER/REQUEST from a configured pool. True to yanc's design, its
// lease table is not private state — every lease is a file under
// <region>/services/dhcp/leases/<mac>, so `ls` shows who has an address
// and removing the file revokes the lease.
type DHCPd struct {
	P      *vfs.Proc
	Region string
	App    string

	// Pool configuration.
	ServerIP  ethernet.IP4
	PoolStart ethernet.IP4
	Count     int
	Mask      ethernet.IP4
	Router    ethernet.IP4
	LeaseSec  uint32

	sub subscription

	mu     sync.Mutex
	leases map[ethernet.MAC]ethernet.IP4
	inUse  map[ethernet.IP4]bool
	now    func() time.Time
	offers uint64
	acks   uint64
}

// NewDHCPd creates a daemon serving a /24-ish pool starting at start.
func NewDHCPd(p *vfs.Proc, region string, start ethernet.IP4, count int) *DHCPd {
	return &DHCPd{
		P:         p,
		Region:    region,
		App:       "dhcpd",
		ServerIP:  ethernet.IP4{start[0], start[1], start[2], 1},
		PoolStart: start,
		Count:     count,
		Mask:      ethernet.IP4{255, 255, 255, 0},
		Router:    ethernet.IP4{start[0], start[1], start[2], 1},
		LeaseSec:  3600,
		leases:    make(map[ethernet.MAC]ethernet.IP4),
		inUse:     make(map[ethernet.IP4]bool),
		now:       time.Now,
	}
}

// leaseDir returns the leases directory path.
func (d *DHCPd) leaseDir() string {
	return vfs.Join(d.Region, "services", "dhcp", "leases")
}

// Start subscribes and begins serving in the background.
func (d *DHCPd) Start() error {
	if err := d.EnsureSubscribed(); err != nil {
		return err
	}
	return d.sub.start(d.P, d.Region, d.App, d.handle)
}

// Stop shuts the daemon down and removes its watch.
func (d *DHCPd) Stop() { d.sub.close() }

// EnsureSubscribed prepares the buffer, the lease directory, and the
// intercept flows, without starting the loop.
func (d *DHCPd) EnsureSubscribed() error {
	if d.sub.watch != nil {
		return nil
	}
	if err := d.P.MkdirAll(d.leaseDir(), 0o755); err != nil {
		return err
	}
	if err := d.sub.open(d.P, d.Region, d.App, d.handle); err != nil {
		return err
	}
	return d.InstallInterceptFlows()
}

// InstallInterceptFlows writes a DHCP-to-controller flow on every switch.
// A table miss only carries the first miss_send_len bytes of the packet;
// an explicit output-to-controller action delivers the whole message,
// which a ~300-byte DHCP packet needs.
func (d *DHCPd) InstallInterceptFlows() error {
	var m openflow.Match
	for f, v := range map[openflow.Field]string{
		openflow.FieldDLType:  "0x0800",
		openflow.FieldNWProto: "17",
		openflow.FieldTPDst:   strconv.Itoa(ethernet.DHCPServerPort),
	} {
		if err := m.SetField(f, v); err != nil {
			return err
		}
	}
	switches, err := yancfs.ListSwitches(d.P, d.Region)
	if err != nil {
		return err
	}
	for _, sw := range switches {
		flowPath := vfs.Join(d.Region, yancfs.DirSwitches, sw, "flows", "dhcpd-intercept")
		if _, err := yancfs.WriteFlow(d.P, flowPath, yancfs.FlowSpec{
			Match:    m,
			Priority: 64000,
			Actions:  []openflow.Action{openflow.OutputController(0xffff)},
		}); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports offers and acks served.
func (d *DHCPd) Stats() (offers, acks uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.offers, d.acks
}

// Drain synchronously serves every pending request, returning how many
// events it consumed.
func (d *DHCPd) Drain() int { return d.sub.drain() }

func (d *DHCPd) handle(ev yancfs.PacketInEvent) {
	f, err := ethernet.DecodeFrame(ev.Data)
	if err != nil || f.Type != ethernet.TypeIPv4 {
		return
	}
	ip, err := ethernet.DecodeIPv4(f.Payload)
	if err != nil || ip.Protocol != ethernet.ProtoUDP {
		return
	}
	udp, err := ethernet.DecodeUDP(ip.Payload)
	if err != nil || udp.DstPort != ethernet.DHCPServerPort {
		return
	}
	req, err := ethernet.DecodeDHCP(udp.Payload)
	if err != nil || req.Op != 1 {
		return
	}
	switch req.MsgType {
	case ethernet.DHCPDiscover:
		addr, ok := d.allocate(req.ClientHW)
		if !ok {
			return
		}
		d.reply(ev, req, ethernet.DHCPOffer, addr)
		d.mu.Lock()
		d.offers++
		d.mu.Unlock()
	case ethernet.DHCPRequest:
		addr, ok := d.confirm(req.ClientHW, req.ReqIP)
		if !ok {
			d.reply(ev, req, ethernet.DHCPNak, ethernet.IP4{})
			return
		}
		if err := d.writeLease(req.ClientHW, addr); err != nil {
			return
		}
		d.reply(ev, req, ethernet.DHCPAck, addr)
		d.mu.Lock()
		d.acks++
		d.mu.Unlock()
	}
}

// allocate picks (or re-finds) an address for a client.
func (d *DHCPd) allocate(hw ethernet.MAC) (ethernet.IP4, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if addr, ok := d.leases[hw]; ok {
		return addr, true
	}
	base := d.PoolStart.Uint32()
	for i := 0; i < d.Count; i++ {
		addr := ethernet.IP4FromUint32(base + uint32(i))
		if !d.inUse[addr] {
			d.leases[hw] = addr
			d.inUse[addr] = true
			return addr, true
		}
	}
	return ethernet.IP4{}, false
}

// confirm validates a REQUEST against the allocation.
func (d *DHCPd) confirm(hw ethernet.MAC, req ethernet.IP4) (ethernet.IP4, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	addr, ok := d.leases[hw]
	if !ok {
		return ethernet.IP4{}, false
	}
	if req != (ethernet.IP4{}) && req != addr {
		return ethernet.IP4{}, false
	}
	return addr, true
}

// writeLease records the lease in the file system.
func (d *DHCPd) writeLease(hw ethernet.MAC, addr ethernet.IP4) error {
	base := vfs.Join(d.leaseDir(), strings.ReplaceAll(hw.String(), ":", "-"))
	if !d.P.Exists(base) {
		if err := d.P.Mkdir(base, 0o755); err != nil {
			return err
		}
	}
	expires := d.now().Add(time.Duration(d.LeaseSec) * time.Second).UTC()
	for file, content := range map[string]string{
		"ip":      addr.String(),
		"mac":     hw.String(),
		"expires": expires.Format(time.RFC3339),
	} {
		if err := d.P.WriteString(vfs.Join(base, file), content+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// Leases reads the lease table back from the file system (what any other
// app — or cat — would see).
func (d *DHCPd) Leases() (map[string]string, error) {
	out := make(map[string]string)
	entries, err := d.P.ReadDir(d.leaseDir())
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		mac, err1 := d.P.ReadString(vfs.Join(d.leaseDir(), e.Name, "mac"))
		ip, err2 := d.P.ReadString(vfs.Join(d.leaseDir(), e.Name, "ip"))
		if err1 == nil && err2 == nil {
			out[mac] = ip
		}
	}
	return out, nil
}

// reply sends a DHCP server message out the requesting port.
func (d *DHCPd) reply(ev yancfs.PacketInEvent, req ethernet.DHCP, msgType uint8, addr ethernet.IP4) {
	resp := ethernet.DHCP{
		Op:       2,
		XID:      req.XID,
		ClientHW: req.ClientHW,
		YourIP:   addr,
		ServerIP: d.ServerIP,
		MsgType:  msgType,
		Mask:     d.Mask,
		Router:   d.Router,
		LeaseSec: d.LeaseSec,
	}
	serverMAC := ethernet.MACFromUint64(0x02_44_48_43_50_00) // "DHCP" vendor-ish
	frame := ethernet.Frame{
		Dst:  ethernet.Broadcast,
		Src:  serverMAC,
		Type: ethernet.TypeIPv4,
		Payload: ethernet.IPv4{
			TTL:      64,
			Protocol: ethernet.ProtoUDP,
			Src:      d.ServerIP,
			Dst:      ethernet.IP4{255, 255, 255, 255},
			Payload: ethernet.UDP{
				SrcPort: ethernet.DHCPServerPort,
				DstPort: ethernet.DHCPClientPort,
				Payload: resp.Serialize(),
			}.Serialize(),
		}.Serialize(),
	}.Serialize()
	spec := "out=" + strconv.FormatUint(uint64(ev.InPort), 10) + "\n"
	swPath := vfs.Join(d.Region, yancfs.DirSwitches, ev.Switch)
	_ = d.P.WriteFile(vfs.Join(swPath, "packet_out"), append([]byte(spec), frame...), 0o644)
}

// ReleaseLease revokes a lease by MAC, removing its files — the same
// effect an administrator gets with rm -r.
func (d *DHCPd) ReleaseLease(hw ethernet.MAC) error {
	d.mu.Lock()
	addr, ok := d.leases[hw]
	if ok {
		delete(d.leases, hw)
		delete(d.inUse, addr)
	}
	d.mu.Unlock()
	base := vfs.Join(d.leaseDir(), strings.ReplaceAll(hw.String(), ":", "-"))
	if d.P.Exists(base) {
		return d.P.RemoveAll(base)
	}
	if !ok {
		return fmt.Errorf("apps: dhcpd: no lease for %s", hw)
	}
	return nil
}
