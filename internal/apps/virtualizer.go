package apps

import (
	"fmt"
	"sort"
	"strconv"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// BigSwitch implements the virtualization half of network views (§4.2):
// "combining multiple switches and forming a new topology" — here the
// classic single-big-switch abstraction. The view contains one virtual
// switch whose ports map onto physical (switch, port) pairs anywhere in
// the network. A flow written to the virtual switch with in_port=vX and
// out=vY compiles into a chain of flows along the shortest physical path
// between the mapped ports; packet-ins at mapped ports are translated
// into the view with virtual port numbers.
//
// Views stack: the region the big switch virtualizes over can itself be a
// view (e.g. a slice), "to facilitate any logical topology and federated
// control required of the network".
type BigSwitch struct {
	Y      *yancfs.FS
	Region string // underlying region (master or another view)
	Name   string // view name
	// VSwitchName is the virtual switch's name inside the view.
	VSwitchName string
	// PortMap maps virtual port numbers to physical ports.
	PortMap map[uint32]PortRef

	view
}

// NewBigSwitch configures a single-big-switch view.
func NewBigSwitch(y *yancfs.FS, region, name string, portMap map[uint32]PortRef) *BigSwitch {
	return &BigSwitch{
		Y:           y,
		Region:      region,
		Name:        name,
		VSwitchName: "big0",
		PortMap:     portMap,
	}
}

// ViewPath returns the view's region path.
func (b *BigSwitch) ViewPath() string {
	return vfs.Join(b.Region, yancfs.DirViews, b.Name)
}

// Create materializes the view and the virtual switch with its ports.
func (b *BigSwitch) Create() error {
	p := b.Y.Root()
	vsw := vfs.Join(b.ViewPath(), yancfs.DirSwitches, b.VSwitchName)
	if err := mkdirs(p, b.ViewPath(), vsw); err != nil {
		return err
	}
	var vports []uint32
	for vp := range b.PortMap {
		vports = append(vports, vp)
	}
	sort.Slice(vports, func(i, j int) bool { return vports[i] < vports[j] })
	for _, vp := range vports {
		phys := b.PortMap[vp]
		portPath := vfs.Join(vsw, "ports", strconv.FormatUint(uint64(vp), 10))
		if err := mkdirs(p, portPath); err != nil {
			return err
		}
		// Record the mapping as an xattr so administrators can inspect
		// the virtualization with getfattr.
		if err := p.SetXattr(portPath, "user.yanc.vport.maps-to", []byte(phys.String())); err != nil {
			return err
		}
	}
	return nil
}

// Start begins compiling committed virtual flows and translating events.
// Compilation reads the underlying region's topology from a
// watch-invalidated cache; when its links change every virtual flow is
// compiled again.
func (b *BigSwitch) Start() error {
	b.cache = newTopoCache(b.Y.Root(), b.Region)
	return b.start(b.Y, b.Region, b.ViewPath(), "vnet-"+b.Name, []string{b.VSwitchName}, b)
}

// flow compiles a virtual flow into physical path flows. The virtual
// match must pin in_port; each output action must target a mapped
// virtual port.
func (b *BigSwitch) flow(_, flowName string, spec yancfs.FlowSpec) ([]target, error) {
	if !spec.Match.Has(openflow.FieldInPort) {
		return nil, fmt.Errorf("apps: big switch flow %s: match.in_port is required", flowName)
	}
	src, ok := b.PortMap[spec.Match.InPort]
	if !ok {
		return nil, fmt.Errorf("apps: big switch flow %s: unmapped in_port %d", flowName, spec.Match.InPort)
	}
	var rewrites []openflow.Action
	var outs []PortRef
	for _, a := range spec.Actions {
		if a.Type != openflow.ActOutput {
			rewrites = append(rewrites, a)
			continue
		}
		dst, ok := b.PortMap[a.Port]
		if !ok {
			return nil, fmt.Errorf("apps: big switch flow %s: unmapped out port %d", flowName, a.Port)
		}
		outs = append(outs, dst)
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("apps: big switch flow %s: no output action", flowName)
	}
	var targets []target
	for _, dst := range outs {
		type step struct {
			sw              string
			inPort, outPort uint32
		}
		var steps []step
		inPort := src.Port
		if src.Switch != dst.Switch {
			rt := b.cache.routeTo(src.Switch, dst.Switch)
			if !rt.ok {
				return nil, fmt.Errorf("apps: big switch flow %s: no path %s -> %s", flowName, src.Switch, dst.Switch)
			}
			for i, h := range rt.hops {
				steps = append(steps, step{sw: h.sw, inPort: inPort, outPort: h.outPort})
				inPort = rt.ins[i]
			}
		}
		steps = append(steps, step{sw: dst.Switch, inPort: inPort, outPort: dst.Port})
		for i, s := range steps {
			match := spec.Match
			match.InPort = s.inPort
			actions := []openflow.Action{openflow.Output(s.outPort)}
			if i == len(steps)-1 {
				// Header rewrites apply once, at the egress switch.
				actions = append(append([]openflow.Action(nil), rewrites...), openflow.Output(s.outPort))
			}
			name := fmt.Sprintf("vnet-%s-%s-%s-%d", b.Name, flowName, s.sw, i)
			targets = append(targets, target{vfs.Join(b.Region, yancfs.DirSwitches, s.sw, "flows", name), yancfs.FlowSpec{
				Match:       match,
				Priority:    spec.Priority,
				IdleTimeout: spec.IdleTimeout,
				HardTimeout: spec.HardTimeout,
				Cookie:      spec.Cookie,
				Actions:     actions,
			}})
		}
	}
	return targets, nil
}

// packetIn translates a packet-in at a mapped physical port: it appears
// to come from the big switch's virtual port ("one application needs to
// alter a packet-in before it is received by another", §3.5).
func (b *BigSwitch) packetIn(ev yancfs.PacketInEvent) (string, *openflow.PacketIn, bool) {
	for vp, phys := range b.PortMap {
		if phys == (PortRef{Switch: ev.Switch, Port: ev.InPort}) {
			return b.VSwitchName, &openflow.PacketIn{
				BufferID: openflow.NoBuffer, // physical buffer ids are meaningless in the view
				TotalLen: ev.TotalLen,
				InPort:   vp,
				Reason:   ev.Reason,
				Data:     ev.Data,
			}, true
		}
	}
	return "", nil, false
}
