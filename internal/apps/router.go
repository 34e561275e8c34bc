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
// path, every hop in one transaction of its own Proc (§8.1's atomic flow
// creation), and releases the triggering packet with a packet-out.
//
// The topology and the hosts/ table are held in a watch-invalidated cache
// (topoCache): a miss on an unchanged network reads neither.
type Router struct {
	P      *vfs.Proc
	Region string
	App    string
	// IdleTimeout for installed path flows, seconds (default 60).
	IdleTimeout uint16
	// Priority of installed flows (default 100).
	Priority uint16

	sub subscription

	// mu serializes misses and guards everything below.
	mu       sync.Mutex
	cache    *topoCache
	learned  map[ethernet.MAC]PortRef
	flowSeq  uint64
	installs uint64
	floods   uint64
	name     []byte // flow path being rendered
	pout     []byte // packet-out head and payload being rendered
}

// NewRouter creates the daemon over a region.
func NewRouter(p *vfs.Proc, region string) *Router {
	return &Router{
		P: p, Region: region, App: "router",
		IdleTimeout: 60, Priority: 100,
		cache:   newTopoCache(p, region),
		learned: make(map[ethernet.MAC]PortRef),
	}
}

// Start subscribes and begins consuming table misses.
func (r *Router) Start() error { return r.sub.start(r.P, r.Region, r.App, r.HandleMiss) }

// Stop shuts the daemon down and removes every watch it placed.
func (r *Router) Stop() {
	r.sub.close()
	r.mu.Lock()
	r.cache.close()
	r.mu.Unlock()
}

// Stats reports how many paths were installed and packets flooded.
func (r *Router) Stats() (installs, floods uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.installs, r.floods
}

// Drain synchronously consumes every pending table miss.
func (r *Router) Drain() { r.sub.drain() }

// EnsureSubscribed subscribes without starting the background loop
// (for synchronous use in tests and benchmarks).
func (r *Router) EnsureSubscribed() error { return r.sub.open(r.P, r.Region, r.App, r.HandleMiss) }

// HandleMiss processes one table-miss event.
func (r *Router) HandleMiss(ev yancfs.PacketInEvent) {
	f, err := ethernet.DecodeFrame(ev.Data)
	if err != nil {
		return
	}
	if f.Type == ethernet.TypeLLDP {
		return // topod's business
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache.refresh()
	// Learn the source location, but only at an edge port: a packet that
	// re-misses after crossing a link says nothing about where its source
	// is attached.
	src := PortRef{Switch: ev.Switch, Port: ev.InPort}
	if !r.cache.linked(src) {
		r.learned[f.Src] = src
	}
	dst, known := r.learned[f.Dst]
	if !known {
		dst, known = r.cache.host(f.Dst)
	}
	if f.Dst.IsBroadcast() || f.Dst.IsMulticast() || !known || r.installPath(src, dst, ev) != nil {
		// Unknown destination, or no way there: flood from the ingress
		// switch.
		r.packetOut(ev.Switch, openflow.PortFlood, ev)
		r.floods++
	}
}

// installPath installs exact-match flows from src's switch to dst and
// releases the packet at the ingress switch. r.mu held.
func (r *Router) installPath(src, dst PortRef, ev yancfs.PacketInEvent) error {
	pf, err := openflow.ExtractFields(ev.Data, ev.InPort)
	if err != nil {
		return err
	}
	rt := r.cache.routeTo(src.Switch, dst.Switch)
	if !rt.ok {
		return fmt.Errorf("apps: no path %s -> %s", src.Switch, dst.Switch)
	}
	r.flowSeq++
	r.installs++
	seq := r.flowSeq
	// The whole path is one commit: one tree-lock hold and one event
	// batch, so the driver never finds one hop's flow without the rest.
	// Nothing rolls a transaction back, so every hop's flows/ is checked
	// before the first flow is put; a step can still fail part-way (a
	// quota), leaving the hops before it, as separate writes would.
	err = r.P.WithTx(func(tx *vfs.Tx) error {
		for _, h := range rt.hops {
			if err := tx.CanCreate(r.cache.switchPaths(h.sw).flows); err != nil {
				return err
			}
		}
		if err := tx.CanCreate(r.cache.switchPaths(dst.Switch).flows); err != nil {
			return err
		}
		// Each switch on the path forwards out its hop's port; the last
		// one exits at dst.Port.
		inPort := src.Port
		for i, h := range rt.hops {
			if err := r.putFlow(tx, seq, h.sw, pf, inPort, h.outPort); err != nil {
				return err
			}
			inPort = rt.ins[i]
		}
		return r.putFlow(tx, seq, dst.Switch, pf, inPort, dst.Port)
	})
	if err != nil {
		return err
	}
	// Release the triggering packet along the fresh path, outside the
	// transaction: the packet_out file's provider runs on the open path.
	first := dst.Port
	if len(rt.hops) > 0 {
		first = rt.hops[0].outPort
	}
	r.packetOut(src.Switch, first, ev)
	return nil
}

// putFlow puts the path flow router-<seq>-<sw> on one switch.
func (r *Router) putFlow(tx *vfs.Tx, seq uint64, sw string, pf openflow.PacketFields, inPort, outPort uint32) error {
	match := openflow.ExactMatch(pf)
	match.Set |= openflow.FieldInPort
	match.InPort = inPort
	b := append(r.name[:0], r.cache.switchPaths(sw).flowPrefix...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(append(b, '-'), sw...)
	r.name = b
	_, err := yancfs.PutFlowTx(tx, string(b), yancfs.FlowSpec{
		Match:       match,
		Priority:    r.Priority,
		IdleTimeout: r.IdleTimeout,
		Actions:     []openflow.Action{openflow.Output(outPort)},
	})
	return err
}

// packetOut releases a buffered packet (or resends its bytes) on a port.
// r.mu held.
func (r *Router) packetOut(sw string, port uint32, ev yancfs.PacketInEvent) {
	b := append(r.pout[:0], "out="...)
	if port == openflow.PortFlood {
		b = append(b, "flood"...)
	} else {
		b = strconv.AppendUint(b, uint64(port), 10)
	}
	if ev.BufferID != openflow.NoBuffer {
		b = strconv.AppendUint(append(b, " buffer_id="...), uint64(ev.BufferID), 10)
	}
	b = strconv.AppendUint(append(b, " in_port="...), uint64(ev.InPort), 10)
	b = append(append(b, '\n'), ev.Data...)
	r.pout = b
	_ = r.P.WriteFile(r.cache.switchPaths(sw).packetOut, b, 0o644)
}
