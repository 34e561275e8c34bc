// Package benchutil builds the standard measurement rigs shared by the
// yancbench experiment harness and the root benchmark suite, so both
// measure exactly the same code paths.
package benchutil

import (
	"fmt"
	"net"

	"yanc/internal/driver"
	"yanc/internal/openflow"
	"yanc/internal/switchsim"
	"yanc/internal/yancfs"
)

// Rig is a controller connected to a simulated network over in-memory
// pipes.
type Rig struct {
	Y      *yancfs.FS
	Driver *driver.Driver
	Net    *switchsim.Network
	Hosts  []*switchsim.Host

	pipes []net.Conn
}

// NewLinearRig builds a k-switch linear network attached to a fresh
// controller; every host is registered under hosts/.
func NewLinearRig(k int, version uint8) (*Rig, error) {
	y, err := yancfs.New()
	if err != nil {
		return nil, err
	}
	n, hosts := switchsim.BuildLinear(k, version)
	r := &Rig{Y: y, Driver: driver.New(y), Net: n, Hosts: hosts}
	for _, sw := range n.Switches() {
		a, b := net.Pipe()
		sw := sw
		go func() { _ = sw.ServeController(b) }()
		if _, err := r.Driver.Attach(a); err != nil {
			return nil, err
		}
		r.pipes = append(r.pipes, a, b)
	}
	p := y.Root()
	for _, h := range hosts {
		dpid, port := h.Attachment()
		if err := yancfs.AddHost(p, "/", h.Name, h.MAC.String(), h.IP.String(),
			fmt.Sprintf("sw%d", dpid), port); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// NewFSOnlyRig builds a controller file system with k switch directories
// and no dataplane — for measuring pure file-system costs.
func NewFSOnlyRig(k int) (*yancfs.FS, error) {
	y, err := yancfs.New()
	if err != nil {
		return nil, err
	}
	p := y.Root()
	for i := 1; i <= k; i++ {
		if _, err := yancfs.CreateSwitch(p, "/", fmt.Sprintf("sw%d", i)); err != nil {
			return nil, err
		}
	}
	// Sanity-check the build with one listing.
	ents, err := p.ReadDir("/switches")
	if err != nil {
		return nil, err
	}
	if len(ents) != k {
		return nil, fmt.Errorf("benchutil: rig has %d switches, want %d", len(ents), k)
	}
	return y, nil
}

// Close tears the rig down.
func (r *Rig) Close() {
	r.Driver.Close()
	for _, c := range r.pipes {
		c.Close()
	}
}

// SampleFlowSpec returns the i-th deterministic realistic flow spec (an
// exact 5-tuple TCP match with one rewrite and one output).
func SampleFlowSpec(i int) yancfs.FlowSpec {
	var m openflow.Match
	must := func(f openflow.Field, v string) {
		if err := m.SetField(f, v); err != nil {
			panic(err)
		}
	}
	must(openflow.FieldDLType, "0x0800")
	must(openflow.FieldNWProto, "6")
	must(openflow.FieldNWSrc, fmt.Sprintf("10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff))
	must(openflow.FieldNWDst, "192.168.0.1")
	must(openflow.FieldTPSrc, fmt.Sprintf("%d", 1024+i%60000))
	must(openflow.FieldTPDst, "80")
	return yancfs.FlowSpec{
		Match:       m,
		Priority:    uint16(100 + i%1000),
		IdleTimeout: 60,
		Actions: []openflow.Action{
			{Type: openflow.ActSetNWTos, TOS: 16},
			openflow.Output(uint32(1 + i%3)),
		},
	}
}
