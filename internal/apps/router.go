package apps

import (
	"fmt"
	"strconv"
	"sync"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// Router is the paper's router daemon (§8): it "handles all table misses
// and sets up paths based on exact match through the network". It learns
// host locations from packet sources, computes shortest paths over the
// peer-symlink topology, installs one exact-match flow per switch on the
// path (via ordinary flow-directory writes), and releases the triggering
// packet with a packet-out.
type Router struct {
	P      *vfs.Proc
	Region string
	App    string
	// IdleTimeout for installed path flows, seconds (default 60).
	IdleTimeout uint16
	// Priority of installed flows (default 100).
	Priority uint16

	mu       sync.Mutex
	buf      string
	watch    *vfs.Watch
	stop     chan struct{}
	stopped  chan struct{}
	learned  map[ethernet.MAC]PortRef
	flowSeq  uint64
	installs uint64
	floods   uint64
}

// NewRouter creates the daemon over a region.
func NewRouter(p *vfs.Proc, region string) *Router {
	return &Router{
		P: p, Region: region, App: "router",
		IdleTimeout: 60, Priority: 100,
		learned: make(map[ethernet.MAC]PortRef),
	}
}

// Start subscribes and begins consuming table misses.
func (r *Router) Start() error {
	buf, w, err := yancfs.Subscribe(r.P, r.Region, r.App)
	if err != nil {
		return err
	}
	r.buf = buf
	r.watch = w
	r.stop = make(chan struct{})
	r.stopped = make(chan struct{})
	go r.loop()
	return nil
}

// Stop shuts the daemon down.
func (r *Router) Stop() {
	if r.stop == nil {
		return
	}
	close(r.stop)
	r.watch.Close()
	<-r.stopped
}

// Stats reports how many paths were installed and packets flooded.
func (r *Router) Stats() (installs, floods uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.installs, r.floods
}

func (r *Router) loop() {
	defer close(r.stopped)
	for {
		select {
		case <-r.stop:
			return
		case _, ok := <-r.watch.C:
			if !ok {
				return
			}
			r.Drain()
		}
	}
}

// Drain synchronously consumes every pending table miss.
func (r *Router) Drain() {
	msgs, err := yancfs.PendingEvents(r.P, r.buf)
	if err != nil {
		return
	}
	for _, msg := range msgs {
		ev, err := yancfs.ConsumePacketIn(r.P, msg)
		if err != nil {
			continue
		}
		r.HandleMiss(ev)
	}
}

// EnsureSubscribed subscribes without starting the background loop
// (for synchronous use in tests and benchmarks).
func (r *Router) EnsureSubscribed() error {
	if r.buf != "" {
		return nil
	}
	buf, w, err := yancfs.Subscribe(r.P, r.Region, r.App)
	if err != nil {
		return err
	}
	r.buf = buf
	r.watch = w
	return nil
}

// HandleMiss processes one table-miss event.
func (r *Router) HandleMiss(ev yancfs.PacketInEvent) {
	f, err := ethernet.DecodeFrame(ev.Data)
	if err != nil {
		return
	}
	if f.Type == ethernet.TypeLLDP {
		return // topod's business
	}
	// Learn the source location.
	src := PortRef{Switch: ev.Switch, Port: ev.InPort}
	r.mu.Lock()
	r.learned[f.Src] = src
	dst, known := r.learned[f.Dst]
	r.mu.Unlock()
	if !known {
		if loc, ok := r.hostLocation(f.Dst); ok {
			dst = loc
			known = true
		}
	}
	if f.Dst.IsBroadcast() || f.Dst.IsMulticast() || !known {
		// Unknown destination: flood from the ingress switch.
		r.packetOut(ev.Switch, openflow.PortFlood, ev)
		r.mu.Lock()
		r.floods++
		r.mu.Unlock()
		return
	}
	if err := r.installPath(src, dst, ev); err != nil {
		r.packetOut(ev.Switch, openflow.PortFlood, ev)
		r.mu.Lock()
		r.floods++
		r.mu.Unlock()
	}
}

// hostLocation consults the hosts/ directory for a static attachment.
func (r *Router) hostLocation(mac ethernet.MAC) (PortRef, bool) {
	locs, _, err := HostLocations(r.P, r.Region)
	if err != nil {
		return PortRef{}, false
	}
	loc, ok := locs[mac]
	return loc, ok
}

// installPath installs exact-match flows from src's switch to dst and
// releases the packet at the ingress switch.
func (r *Router) installPath(src, dst PortRef, ev yancfs.PacketInEvent) error {
	topo, err := LoadTopology(r.P, r.Region)
	if err != nil {
		return err
	}
	pf, err := openflow.ExtractFields(ev.Data, ev.InPort)
	if err != nil {
		return err
	}
	hops, ok := topo.Path(src.Switch, dst.Switch)
	if !ok {
		return fmt.Errorf("apps: no path %s -> %s", src.Switch, dst.Switch)
	}
	// Egress ports along the path; the final hop exits at dst.Port.
	type step struct {
		sw      string
		inPort  uint32
		outPort uint32
	}
	var steps []step
	inPort := src.Port
	for _, h := range hops {
		steps = append(steps, step{sw: h.sw, inPort: inPort, outPort: h.outPort})
		peer := topo.Links[PortRef{h.sw, h.outPort}]
		inPort = peer.Port
	}
	steps = append(steps, step{sw: dst.Switch, inPort: inPort, outPort: dst.Port})

	r.mu.Lock()
	r.flowSeq++
	seq := r.flowSeq
	r.installs++
	r.mu.Unlock()
	for _, s := range steps {
		match := openflow.ExactMatch(pf)
		match.Set |= openflow.FieldInPort
		match.InPort = s.inPort
		flowName := fmt.Sprintf("router-%d-%s", seq, s.sw)
		flowPath := vfs.Join(r.Region, yancfs.DirSwitches, s.sw, "flows", flowName)
		spec := yancfs.FlowSpec{
			Match:       match,
			Priority:    r.Priority,
			IdleTimeout: r.IdleTimeout,
			Actions:     []openflow.Action{openflow.Output(s.outPort)},
		}
		if _, err := yancfs.WriteFlow(r.P, flowPath, spec); err != nil {
			return err
		}
	}
	// Release the triggering packet along the fresh path.
	r.packetOut(src.Switch, steps[0].outPort, ev)
	return nil
}

// packetOut releases a buffered packet (or resends its bytes) on a port.
func (r *Router) packetOut(sw string, port uint32, ev yancfs.PacketInEvent) {
	spec := "out=" + portToken(port)
	if ev.BufferID != openflow.NoBuffer {
		spec += " buffer_id=" + strconv.FormatUint(uint64(ev.BufferID), 10)
	}
	spec += " in_port=" + strconv.FormatUint(uint64(ev.InPort), 10) + "\n"
	payload := append([]byte(spec), ev.Data...)
	_ = r.P.WriteFile(vfs.Join(r.Region, yancfs.DirSwitches, sw, "packet_out"), payload, 0o644)
}

func portToken(port uint32) string {
	if port == openflow.PortFlood {
		return "flood"
	}
	return strconv.FormatUint(uint64(port), 10)
}
