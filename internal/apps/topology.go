// Package apps contains the yanc system applications from §4 and §8 of
// the paper: topology discovery (LLDP), the static flow pusher, the
// reactive router daemon, an ARP responder, the slicer and big-switch
// virtualizer (network views, §4.2), and a cron-style auditor. Every app
// is an ordinary client of the file system — it reads and writes files,
// places watches, and consumes its private event buffer. None of them
// link against the driver or each other.
package apps

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"yanc/internal/ethernet"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// PortRef names one switch port.
type PortRef struct {
	Switch string
	Port   uint32
}

func (r PortRef) String() string { return fmt.Sprintf("%s/%d", r.Switch, r.Port) }

// Topology is the link graph read from the peer symlinks (§3.3: topology
// is represented in the directory layout, not a parsed info file).
type Topology struct {
	// Links maps a port to its peer port.
	Links map[PortRef]PortRef
	// Ports lists each switch's ports.
	Ports map[string][]uint32

	// adj lists each switch's linked ports in port order: Path's BFS
	// walks it instead of scanning Links. Built once, on first use.
	adj map[string][]edge
}

// edge is one outgoing link: leave the switch by port, arrive at to.
type edge struct {
	port uint32
	to   PortRef
}

// LoadTopology builds the graph from a region's switches directory.
func LoadTopology(p *vfs.Proc, region string) (*Topology, error) {
	return loadTopology(p, region, nil)
}

// loadTopology is LoadTopology with a hook run for each switch before its
// ports are listed (the router's cache places its watch there, so no
// change between the watch and the listing is missed).
func loadTopology(p *vfs.Proc, region string, beforePorts func(sw, swPath string)) (*Topology, error) {
	topo := &Topology{
		Links: make(map[PortRef]PortRef),
		Ports: make(map[string][]uint32),
	}
	switches, err := yancfs.ListSwitches(p, region)
	if err != nil {
		return nil, err
	}
	for _, sw := range switches {
		swPath := vfs.Join(region, yancfs.DirSwitches, sw)
		if beforePorts != nil {
			beforePorts(sw, swPath)
		}
		ports, err := yancfs.ListPorts(p, swPath)
		if err != nil {
			continue
		}
		topo.Ports[sw] = ports
		for _, port := range ports {
			portPath := vfs.Join(swPath, "ports", strconv.FormatUint(uint64(port), 10))
			if peerSw, peerPort, ok := yancfs.Peer(p, portPath); ok {
				topo.Links[PortRef{sw, port}] = PortRef{peerSw, peerPort}
			}
		}
	}
	return topo, nil
}

// Switches returns switch names in sorted order.
func (t *Topology) Switches() []string {
	names := make([]string, 0, len(t.Ports))
	for sw := range t.Ports {
		names = append(names, sw)
	}
	sort.Strings(names)
	return names
}

// adjacency returns the per-switch sorted link lists, building them from
// Links on first use: O(E log E) once instead of per BFS step.
func (t *Topology) adjacency() map[string][]edge {
	if t.adj == nil {
		t.adj = make(map[string][]edge, len(t.Ports))
		for from, to := range t.Links {
			t.adj[from.Switch] = append(t.adj[from.Switch], edge{port: from.Port, to: to})
		}
		for _, es := range t.adj {
			sort.Slice(es, func(i, j int) bool { return es[i].port < es[j].port })
		}
	}
	return t.adj
}

// hop is one step on a path: leave fromSwitch via outPort.
type hop struct {
	sw      string
	outPort uint32
}

// Path computes the shortest switch path from src to dst switch and
// returns, for each switch on the path, the egress port toward dst.
// ok is false when dst is unreachable. Ties go to the lower port number.
// BFS over the adjacency lists: O(V+E).
func (t *Topology) Path(src, dst string) (hops []hop, ok bool) {
	if src == dst {
		return nil, true
	}
	adj := t.adjacency()
	// via records, for each reached switch, the hop that first reached it.
	via := map[string]hop{src: {}}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur] {
			if _, seen := via[e.to.Switch]; seen {
				continue
			}
			via[e.to.Switch] = hop{sw: cur, outPort: e.port}
			if e.to.Switch != dst {
				queue = append(queue, e.to.Switch)
				continue
			}
			for sw := dst; sw != src; {
				h := via[sw]
				hops = append(hops, h)
				sw = h.sw
			}
			slices.Reverse(hops)
			return hops, true
		}
	}
	return nil, false
}

// HostLocations reads the hosts/ directory into MAC → attachment.
func HostLocations(p *vfs.Proc, region string) (map[ethernet.MAC]PortRef, map[ethernet.IP4]ethernet.MAC, error) {
	locs := make(map[ethernet.MAC]PortRef)
	arps := make(map[ethernet.IP4]ethernet.MAC)
	dir := vfs.Join(region, yancfs.DirHosts)
	entries, err := p.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		base := vfs.Join(dir, e.Name)
		macStr, err := p.ReadString(vfs.Join(base, "mac"))
		if err != nil {
			continue
		}
		mac, err := ethernet.ParseMAC(macStr)
		if err != nil {
			continue
		}
		swName, _ := p.ReadString(vfs.Join(base, "switch"))
		portStr, _ := p.ReadString(vfs.Join(base, "port"))
		port, _ := strconv.ParseUint(strings.TrimSpace(portStr), 10, 32)
		locs[mac] = PortRef{Switch: strings.TrimSpace(swName), Port: uint32(port)}
		if ipStr, err := p.ReadString(vfs.Join(base, "ip")); err == nil {
			if ip, err := ethernet.ParseIP4(ipStr); err == nil {
				arps[ip] = mac
			}
		}
	}
	return locs, arps, nil
}
