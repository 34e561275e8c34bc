package apps

import (
	"yanc/internal/ethernet"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// structuralOps are the events that change what LoadTopology reads: an
// entry appearing, going or moving. Content writes (port counters, status)
// do not.
const structuralOps = vfs.OpCreate | vfs.OpRemove | vfs.OpRename

// cacheWatchDepth is each cache watch's queue. Any event, an overflow
// included, means the same thing, rebuild, so a short queue loses nothing
// and keeps a thousand-switch region's watches small.
const cacheWatchDepth = 64

// topoCache is the router's in-memory copy of a region's topology and
// host table. §5's point is that the notify machinery "comes free" to
// apps: the cache reads the network once, then rebuilds only when one of
// its watches reports a structural change, or overflows. A miss on an
// unchanged network reads nothing.
//
// The watches are:
//   - <region>/switches, non-recursive: a switch appears, goes or is
//     renamed;
//   - <region>/switches/<sw>/ports, recursive, one per switch: a port
//     appears or goes, a peer symlink is made or removed;
//   - <region>/hosts, recursive, content writes included: any host record
//     changes.
//
// switches/ is never watched recursively: that watch would also receive
// every flow-file create under switches/<sw>/flows.
//
// Contract: once vfs.FS.SyncWatches has returned after a change, the next
// refresh sees it, so the cache is never staler than re-reading the tree
// on every miss. Not safe for concurrent use; the router's goroutine owns
// it.
type topoCache struct {
	p      *vfs.Proc
	region string

	switches *vfs.Watch
	hosts    *vfs.Watch
	ports    map[string]*vfs.Watch // switch name -> its ports watch
	stale    bool
	rebuilds uint64

	topo   *Topology
	hostAt map[ethernet.MAC]PortRef
	routes map[[2]string]route // (src, dst) switch -> its path
	paths  map[string]*swPaths // switch name -> the files the router writes
}

// route is a memoized path between two switches: the hops in order, and
// ins[i], the port by which the packet enters the switch after hops[i].
type route struct {
	hops []hop
	ins  []uint32
	ok   bool
}

// swPaths are the per-switch paths the router writes: the prefix of every
// flow directory it names and the packet_out control file.
type swPaths struct {
	flowPrefix string // <region>/switches/<sw>/flows/router-
	packetOut  string
}

func newTopoCache(p *vfs.Proc, region string) *topoCache {
	return &topoCache{
		p: p, region: region, stale: true,
		topo:   &Topology{},
		ports:  make(map[string]*vfs.Watch),
		routes: make(map[[2]string]route),
		paths:  make(map[string]*swPaths),
	}
}

// refresh brings the cache up to date: a non-blocking drain of every
// watch, then a rebuild if any of them fired.
func (c *topoCache) refresh() {
	if c.switches == nil {
		// Watch before the first read so nothing between them is missed.
		var err error
		if c.switches, err = c.p.AddWatch(vfs.Join(c.region, yancfs.DirSwitches), structuralOps,
			vfs.BufferSize(cacheWatchDepth)); err != nil {
			c.switches = nil
			return
		}
		if c.hosts, err = c.p.AddWatch(vfs.Join(c.region, yancfs.DirHosts),
			structuralOps|vfs.OpWrite, vfs.Recursive(), vfs.BufferSize(cacheWatchDepth)); err != nil {
			c.hosts = nil
			c.close()
			return
		}
	}
	c.stale = drained(c.switches) || c.stale
	c.stale = drained(c.hosts) || c.stale
	for _, w := range c.ports {
		c.stale = drained(w) || c.stale
	}
	if c.stale {
		c.rebuild()
	}
}

// drained empties w without blocking and reports whether anything (an
// overflow included) had arrived.
func drained(w *vfs.Watch) bool {
	fired := false
	for {
		select {
		case _, ok := <-w.C:
			if !ok {
				return fired
			}
			fired = true
		default:
			return fired
		}
	}
}

// rebuild re-reads the topology and the host table. A read that fails
// leaves the cache stale, so the next miss tries again, as a per-miss
// reload would.
func (c *topoCache) rebuild() {
	c.stale = false
	c.rebuilds++
	live := make(map[string]bool, len(c.ports))
	topo, err := loadTopology(c.p, c.region, func(sw, swPath string) {
		live[sw] = true
		if c.ports[sw] != nil {
			return
		}
		w, err := c.p.AddWatch(vfs.Join(swPath, "ports"), structuralOps,
			vfs.Recursive(), vfs.BufferSize(cacheWatchDepth))
		if err != nil {
			c.stale = true
			return
		}
		c.ports[sw] = w
	})
	for sw, w := range c.ports {
		if !live[sw] {
			w.Close()
			delete(c.ports, sw)
		}
	}
	if err != nil {
		c.stale = true
		topo = &Topology{}
	}
	hosts, _, err := HostLocations(c.p, c.region)
	if err != nil {
		c.stale = true
	}
	c.topo, c.hostAt = topo, hosts
	clear(c.routes)
	clear(c.paths)
}

// host returns a MAC's attachment from the hosts/ table.
func (c *topoCache) host(mac ethernet.MAC) (PortRef, bool) {
	loc, ok := c.hostAt[mac]
	return loc, ok
}

// linked reports whether a port has a peer, i.e. is an inter-switch port.
func (c *topoCache) linked(at PortRef) bool {
	_, ok := c.topo.Links[at]
	return ok
}

// routeTo returns the path from switch src to switch dst, computed once
// per rebuild.
func (c *topoCache) routeTo(src, dst string) route {
	key := [2]string{src, dst}
	if rt, ok := c.routes[key]; ok {
		return rt
	}
	hops, ok := c.topo.Path(src, dst)
	rt := route{hops: hops, ok: ok, ins: make([]uint32, len(hops))}
	for i, h := range hops {
		rt.ins[i] = c.topo.Links[PortRef{h.sw, h.outPort}].Port
	}
	c.routes[key] = rt
	return rt
}

// switchPaths returns the paths the router writes on switch sw.
func (c *topoCache) switchPaths(sw string) *swPaths {
	sp := c.paths[sw]
	if sp == nil {
		dir := vfs.Join(c.region, yancfs.DirSwitches, sw)
		sp = &swPaths{
			flowPrefix: vfs.Join(dir, "flows", "router-"),
			packetOut:  vfs.Join(dir, "packet_out"),
		}
		c.paths[sw] = sp
	}
	return sp
}

// close removes every watch the cache placed.
func (c *topoCache) close() {
	for _, w := range []*vfs.Watch{c.switches, c.hosts} {
		if w != nil {
			w.Close()
		}
	}
	for sw, w := range c.ports {
		w.Close()
		delete(c.ports, sw)
	}
	c.switches, c.hosts = nil, nil
	c.stale = true
}
