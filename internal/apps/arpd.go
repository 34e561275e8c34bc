package apps

import (
	"strconv"
	"sync"

	"yanc/internal/ethernet"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// ARPd is the distinct-protocol daemon the goals section calls for
// ("there should be a distinct application for each protocol the network
// needs to support such as DHCP, ARP, and LLDP"). It answers ARP requests
// from the hosts/ directory's IP-to-MAC records, keeping broadcast ARP
// traffic off the rest of the network.
type ARPd struct {
	P      *vfs.Proc
	Region string
	App    string

	sub subscription

	mu sync.Mutex
	// learned supplements hosts/ records with observed sender mappings.
	learned map[ethernet.IP4]ethernet.MAC
	replies uint64
}

// NewARPd creates the daemon over a region.
func NewARPd(p *vfs.Proc, region string) *ARPd {
	return &ARPd{P: p, Region: region, App: "arpd", learned: make(map[ethernet.IP4]ethernet.MAC)}
}

// Start subscribes and begins answering in the background.
func (a *ARPd) Start() error { return a.sub.start(a.P, a.Region, a.App, a.handle) }

// Stop shuts the daemon down and removes its watch.
func (a *ARPd) Stop() { a.sub.close() }

// Replies reports how many ARP replies were sent.
func (a *ARPd) Replies() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.replies
}

// EnsureSubscribed subscribes without starting the loop.
func (a *ARPd) EnsureSubscribed() error { return a.sub.open(a.P, a.Region, a.App, a.handle) }

// Drain synchronously answers every pending ARP request.
func (a *ARPd) Drain() { a.sub.drain() }

func (a *ARPd) handle(ev yancfs.PacketInEvent) {
	f, err := ethernet.DecodeFrame(ev.Data)
	if err != nil || f.Type != ethernet.TypeARP {
		return
	}
	req, err := ethernet.DecodeARP(f.Payload)
	if err != nil {
		return
	}
	a.mu.Lock()
	a.learned[req.SenderIP] = req.SenderHW
	a.mu.Unlock()
	if req.Op != ethernet.ARPRequest {
		return
	}
	mac, ok := a.resolve(req.TargetIP)
	if !ok {
		return
	}
	reply := ethernet.ARP{
		Op:       ethernet.ARPReply,
		SenderHW: mac,
		SenderIP: req.TargetIP,
		TargetHW: req.SenderHW,
		TargetIP: req.SenderIP,
	}
	frame := ethernet.Frame{
		Dst:     req.SenderHW,
		Src:     mac,
		Type:    ethernet.TypeARP,
		Payload: reply.Serialize(),
	}.Serialize()
	spec := "out=" + strconv.FormatUint(uint64(ev.InPort), 10) + "\n"
	payload := append([]byte(spec), frame...)
	swPath := vfs.Join(a.Region, yancfs.DirSwitches, ev.Switch)
	if err := a.P.WriteFile(vfs.Join(swPath, "packet_out"), payload, 0o644); err == nil {
		a.mu.Lock()
		a.replies++
		a.mu.Unlock()
	}
}

// resolve looks an IP up in learned mappings, then the hosts/ directory.
func (a *ARPd) resolve(ip ethernet.IP4) (ethernet.MAC, bool) {
	a.mu.Lock()
	mac, ok := a.learned[ip]
	a.mu.Unlock()
	if ok {
		return mac, true
	}
	_, arps, err := HostLocations(a.P, a.Region)
	if err != nil {
		return ethernet.MAC{}, false
	}
	mac, ok = arps[ip]
	return mac, ok
}
