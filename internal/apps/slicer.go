package apps

import (
	"fmt"
	"slices"
	"strconv"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// Slicer implements the slicing half of network views (§4.2): "a slice of
// a network is a subset of the hardware and header space across one or
// more switches; the original topology is not changed." The slicer
// creates a view containing mirror directories for the member switches
// and translates between the two regions of the file system:
//
//   - flows committed inside the view are intersected with the slice's
//     header-space filter and written into the master region (prefixed,
//     so slices cannot collide);
//   - flow removals propagate, and so does an edit that takes a flow out
//     of the slice: its twin goes and its "error" file says why;
//   - packet-in events that belong to the slice (member switch + filter
//     match) are re-delivered into the view's event buffers.
//
// Disjoint flows (outside the slice's header space) are rejected by
// writing the reason into the flow's "error" file.
type Slicer struct {
	Y        *yancfs.FS
	Region   string // parent region (usually "/")
	Name     string // view name
	Filter   openflow.Match
	Switches []string

	view
}

// NewSlicer configures a slice of the given switches and header space.
func NewSlicer(y *yancfs.FS, region, name string, filter openflow.Match, switches []string) *Slicer {
	return &Slicer{
		Y:        y,
		Region:   region,
		Name:     name,
		Filter:   filter,
		Switches: switches,
	}
}

// ViewPath returns the view's region path.
func (s *Slicer) ViewPath() string {
	return vfs.Join(s.Region, yancfs.DirViews, s.Name)
}

// masterFlowName prefixes a view flow so slices cannot collide with each
// other or with master flows.
func (s *Slicer) masterFlowName(viewFlow string) string {
	return "slice-" + s.Name + "-" + viewFlow
}

// Create materializes the view: the region skeleton (via semantic mkdir),
// one mirror switch directory per member with its ports, and peer links
// for the intra-slice topology. The filter is recorded as an xattr for
// introspection.
func (s *Slicer) Create() error {
	p := s.Y.Root()
	view := s.ViewPath()
	if err := mkdirs(p, view); err != nil {
		return err
	}
	if err := p.SetXattr(view, "user.yanc.slice.filter", []byte(s.Filter.String())); err != nil {
		return err
	}
	member := make(map[string]bool, len(s.Switches))
	for _, sw := range s.Switches {
		member[sw] = true
	}
	for _, sw := range s.Switches {
		masterSw := vfs.Join(s.Region, yancfs.DirSwitches, sw)
		if !p.IsDir(masterSw) {
			return fmt.Errorf("apps: slicer: no switch %s in %s", sw, s.Region)
		}
		viewSw := vfs.Join(view, yancfs.DirSwitches, sw)
		if err := mkdirs(p, viewSw); err != nil {
			return err
		}
		// Mirror identity and ports.
		for _, file := range []string{"id", "protocol", "capabilities", "actions"} {
			if b, err := p.ReadFile(vfs.Join(masterSw, file)); err == nil {
				if err := p.WriteFile(vfs.Join(viewSw, file), b, 0o644); err != nil {
					return err
				}
			}
		}
		ports, err := yancfs.ListPorts(p, masterSw)
		if err != nil {
			return err
		}
		for _, port := range ports {
			portName := strconv.FormatUint(uint64(port), 10)
			viewPort := vfs.Join(viewSw, "ports", portName)
			if err := mkdirs(p, viewPort); err != nil {
				return err
			}
		}
	}
	// Second pass for the intra-slice topology: every member port now
	// exists, so peer links can be mirrored in both directions ("the
	// original topology is not changed", just subsetted).
	for _, sw := range s.Switches {
		masterSw := vfs.Join(s.Region, yancfs.DirSwitches, sw)
		ports, err := yancfs.ListPorts(p, masterSw)
		if err != nil {
			return err
		}
		for _, port := range ports {
			portName := strconv.FormatUint(uint64(port), 10)
			masterPort := vfs.Join(masterSw, "ports", portName)
			peerSw, peerPort, ok := yancfs.Peer(p, masterPort)
			if !ok || !member[peerSw] {
				continue
			}
			viewPort := vfs.Join(view, yancfs.DirSwitches, sw, "ports", portName)
			peerPath := vfs.Join(view, yancfs.DirSwitches, peerSw, "ports",
				strconv.FormatUint(uint64(peerPort), 10))
			if p.IsDir(peerPath) {
				if err := yancfs.SetPeer(p, viewPort, peerPath); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Start begins translating the member switches' flows down and the
// slice's packet-ins up.
func (s *Slicer) Start() error {
	return s.start(s.Y, s.Region, s.ViewPath(), "slicer-"+s.Name, s.Switches, s)
}

// flow confines a view flow to the slice's header space and names its
// twin in the master region.
func (s *Slicer) flow(sw, name string, spec yancfs.FlowSpec) ([]target, error) {
	confined, err := openflow.Intersect(spec.Match, s.Filter)
	if err != nil {
		return nil, err // the flow escapes the slice
	}
	spec.Match = confined
	return []target{{vfs.Join(s.Region, yancfs.DirSwitches, sw, "flows", s.masterFlowName(name)), spec}}, nil
}

// packetIn passes a member switch's packet-in that falls in the slice's
// header space into the view, unchanged: the slice preserves the original
// topology, so ports need no renaming.
func (s *Slicer) packetIn(ev yancfs.PacketInEvent) (string, *openflow.PacketIn, bool) {
	if !slices.Contains(s.Switches, ev.Switch) {
		return "", nil, false
	}
	pf, err := openflow.ExtractFields(ev.Data, ev.InPort)
	if err != nil || !s.Filter.MatchesPacket(&pf) {
		return "", nil, false
	}
	return ev.Switch, &openflow.PacketIn{
		BufferID: ev.BufferID,
		TotalLen: ev.TotalLen,
		InPort:   ev.InPort,
		Reason:   ev.Reason,
		Data:     ev.Data,
	}, true
}
