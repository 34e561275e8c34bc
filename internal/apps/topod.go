package apps

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// mustLLDPMatch builds the dl_type=0x88cc match.
func mustLLDPMatch() openflow.Match {
	var m openflow.Match
	if err := m.SetField(openflow.FieldDLType, "0x88cc"); err != nil {
		panic(err)
	}
	return m
}

// lldpTTL is the TTL advertised in discovery frames.
const lldpTTL = 120

// Topod is the topology discovery daemon of §4.3: it installs
// LLDP-to-controller flows on every switch, emits LLDP probes out every
// port through the packet_out control files, and turns the resulting
// packet-in events into peer symbolic links.
type Topod struct {
	P      *vfs.Proc
	Region string
	// App is the event-buffer name (default "topod").
	App string

	sub subscription

	mu sync.Mutex
	// seen tracks links created by this daemon (for pruning).
	seen map[PortRef]PortRef
}

// NewTopod creates the daemon over a region.
func NewTopod(p *vfs.Proc, region string) *Topod {
	return &Topod{P: p, Region: region, App: "topod", seen: make(map[PortRef]PortRef)}
}

// Start subscribes to events and begins consuming them in the background.
func (t *Topod) Start() error { return t.sub.start(t.P, t.Region, t.App, t.handlePacketIn) }

// Stop shuts the daemon down and removes its watch.
func (t *Topod) Stop() { t.sub.close() }

// drainUntilQuiet keeps draining until the buffer stays empty for a few
// consecutive polls. Probes travel asynchronously through the drivers and
// switches, so a single drain immediately after Probe would race them.
func (t *Topod) drainUntilQuiet() {
	quiet := 0
	//yancvet:wallclock probe settling races real goroutines, not simulated time
	deadline := time.Now().Add(2 * time.Second)
	for quiet < 3 && time.Now().Before(deadline) { //yancvet:wallclock see deadline above
		if t.sub.drain() == 0 {
			quiet++
		} else {
			quiet = 0
		}
		time.Sleep(5 * time.Millisecond) //yancvet:wallclock polling pace for real goroutines
	}
}

// InstallDiscoveryFlows writes the LLDP-to-controller flow on every
// switch in the region (priority above normal traffic).
func (t *Topod) InstallDiscoveryFlows() error {
	switches, err := yancfs.ListSwitches(t.P, t.Region)
	if err != nil {
		return err
	}
	var m = mustLLDPMatch()
	for _, sw := range switches {
		flowPath := vfs.Join(t.Region, yancfs.DirSwitches, sw, "flows", "topod-lldp")
		if _, err := yancfs.WriteFlow(t.P, flowPath, yancfs.FlowSpec{
			Match:    m,
			Priority: 65000,
			Actions:  []openflow.Action{openflow.OutputController(0xffff)},
		}); err != nil {
			return err
		}
	}
	return nil
}

// Probe sends one LLDP frame out of every port of every switch. Combined
// with a following drain, one Probe performs a full discovery round.
func (t *Topod) Probe() error {
	switches, err := yancfs.ListSwitches(t.P, t.Region)
	if err != nil {
		return err
	}
	for _, sw := range switches {
		swPath := vfs.Join(t.Region, yancfs.DirSwitches, sw)
		ports, err := yancfs.ListPorts(t.P, swPath)
		if err != nil {
			continue
		}
		for _, port := range ports {
			lldp := ethernet.LLDP{
				ChassisID: sw,
				PortID:    strconv.FormatUint(uint64(port), 10),
				TTL:       lldpTTL,
			}
			frame := ethernet.Frame{
				Dst:     ethernet.LLDPMulticast,
				Src:     ethernet.MACFromUint64(uint64(port)),
				Type:    ethernet.TypeLLDP,
				Payload: lldp.Serialize(),
			}.Serialize()
			spec := fmt.Sprintf("out=%d\n", port)
			payload := append([]byte(spec), frame...)
			if err := t.P.WriteFile(vfs.Join(swPath, "packet_out"), payload, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// handlePacketIn processes one event; only LLDP frames are interesting.
func (t *Topod) handlePacketIn(ev yancfs.PacketInEvent) {
	f, err := ethernet.DecodeFrame(ev.Data)
	if err != nil || f.Type != ethernet.TypeLLDP {
		return
	}
	lldp, err := ethernet.DecodeLLDP(f.Payload)
	if err != nil || lldp.ChassisID == "" || lldp.PortID == "" {
		return
	}
	srcPort, err := strconv.ParseUint(lldp.PortID, 10, 32)
	if err != nil {
		return
	}
	// The probe left (ChassisID, PortID) and arrived at (ev.Switch,
	// ev.InPort): that's a physical link. Record it in both directions.
	a := PortRef{Switch: lldp.ChassisID, Port: uint32(srcPort)}
	b := PortRef{Switch: ev.Switch, Port: ev.InPort}
	t.link(a, b)
	t.link(b, a)
}

// link points a's peer symlink at b.
func (t *Topod) link(a, b PortRef) {
	t.mu.Lock()
	if t.seen[a] == b {
		t.mu.Unlock()
		return
	}
	t.seen[a] = b
	t.mu.Unlock()
	aPath := vfs.Join(t.Region, yancfs.DirSwitches, a.Switch, "ports", strconv.FormatUint(uint64(a.Port), 10))
	bPath := vfs.Join(t.Region, yancfs.DirSwitches, b.Switch, "ports", strconv.FormatUint(uint64(b.Port), 10))
	_ = yancfs.SetPeer(t.P, aPath, bPath)
}

// DiscoverOnce runs a full synchronous discovery round: install flows,
// probe, consume everything pending. Tests and cron-style callers use it.
func (t *Topod) DiscoverOnce() error {
	if err := t.sub.open(t.P, t.Region, t.App, t.handlePacketIn); err != nil {
		return err
	}
	if err := t.InstallDiscoveryFlows(); err != nil {
		return err
	}
	if err := t.Probe(); err != nil {
		return err
	}
	t.drainUntilQuiet()
	return nil
}
