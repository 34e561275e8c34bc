package yancfs

import (
	"errors"
	"slices"
	"testing"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
)

func TestPathHelpers(t *testing.T) {
	if SwitchPath("sw1") != "/switches/sw1" {
		t.Errorf("SwitchPath = %q", SwitchPath("sw1"))
	}
	if FlowPath("sw1", "f1") != "/switches/sw1/flows/f1" {
		t.Errorf("FlowPath = %q", FlowPath("sw1", "f1"))
	}
	if PortPath("sw1", 3) != "/switches/sw1/ports/3" {
		t.Errorf("PortPath = %q", PortPath("sw1", 3))
	}
}

func TestListAndDeleteFlows(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	swPath, _ := CreateSwitch(p, "/", "sw1")
	for _, name := range []string{"b-flow", "a-flow", "c-flow"} {
		if _, err := WriteFlow(p, vfs.Join(swPath, "flows", name), FlowSpec{Priority: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// A stray file in flows/ is not a flow.
	if err := p.WriteString(vfs.Join(swPath, "flows", "README"), "not a flow"); err != nil {
		t.Fatal(err)
	}
	names, err := ListFlows(p, swPath)
	slices.Sort(names) // ListFlows promises no order
	if err != nil || len(names) != 3 || names[0] != "a-flow" {
		t.Fatalf("ListFlows = %v %v", names, err)
	}
	if err := DeleteFlow(p, vfs.Join(swPath, "flows", "b-flow")); err != nil {
		t.Fatal(err)
	}
	names, _ = ListFlows(p, swPath)
	if len(names) != 2 {
		t.Fatalf("after delete = %v", names)
	}
	// Listing flows of a missing switch errors.
	if _, err := ListFlows(p, "/switches/ghost"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("missing switch = %v", err)
	}
}

func TestReadFlowToleratesUnknownAndCorruptEntries(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	swPath, _ := CreateSwitch(p, "/", "sw1")
	flowPath := vfs.Join(swPath, "flows", "f")
	if _, err := WriteFlow(p, flowPath, FlowSpec{
		Priority: 7,
		Actions:  []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	// Unknown files are ignored.
	if err := p.WriteString(vfs.Join(flowPath, "x-custom"), "whatever"); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString(vfs.Join(flowPath, "match.not_a_field"), "1"); err != nil {
		t.Fatal(err)
	}
	spec, err := ReadFlow(p, flowPath)
	if err != nil || spec.Priority != 7 {
		t.Fatalf("spec = %+v %v", spec, err)
	}
	// A corrupt match value is a persistent error (not a seqlock retry).
	if err := p.WriteString(vfs.Join(flowPath, "match.nw_src"), "bogus"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlow(p, flowPath); err == nil {
		t.Fatal("corrupt match accepted")
	}
	// Legacy "timeout" file maps to idle (Figure 3 spelling).
	if err := p.Remove(vfs.Join(flowPath, "match.nw_src")); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString(vfs.Join(flowPath, "timeout"), "33"); err != nil {
		t.Fatal(err)
	}
	spec, err = ReadFlow(p, flowPath)
	if err != nil || spec.IdleTimeout != 33 {
		t.Fatalf("timeout alias = %+v %v", spec, err)
	}
}

func TestFlowVersionErrors(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	if _, err := FlowVersion(p, "/switches/ghost/flows/f"); err == nil {
		t.Fatal("missing flow version must error")
	}
	// CommitFlow on a dir without a version file starts at 1.
	swPath, _ := CreateSwitch(p, "/", "sw1")
	raw := vfs.Join(swPath, "flows-raw")
	if err := p.Mkdir(raw, 0o755); err != nil {
		t.Fatal(err)
	}
	v, err := CommitFlow(p, raw)
	if err != nil || v != 1 {
		t.Fatalf("fresh commit = %d %v", v, err)
	}
}

func TestSubscribeIsIdempotent(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	buf1, w1, err := Subscribe(p, "/", "app")
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	buf2, w2, err := Subscribe(p, "/", "app")
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if buf1 != buf2 {
		t.Errorf("buffers differ: %q %q", buf1, buf2)
	}
}

func TestPeerOnDanglingLink(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	swPath, _ := CreateSwitch(p, "/", "sw1")
	if err := PopulatePort(p, swPath, openflow.PortInfo{No: 1, Name: "p1"}); err != nil {
		t.Fatal(err)
	}
	portPath := vfs.Join(swPath, "ports", "1")
	if _, _, ok := Peer(p, portPath); ok {
		t.Fatal("peer on unlinked port")
	}
	// SetPeer replaces even a dangling symlink left by a removed switch.
	sw2, _ := CreateSwitch(p, "/", "sw2")
	if err := PopulatePort(p, sw2, openflow.PortInfo{No: 2, Name: "p2"}); err != nil {
		t.Fatal(err)
	}
	target := vfs.Join(sw2, "ports", "2")
	if err := SetPeer(p, portPath, target); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove(sw2); err != nil { // leaves the peer dangling
		t.Fatal(err)
	}
	sw3, _ := CreateSwitch(p, "/", "sw3")
	if err := PopulatePort(p, sw3, openflow.PortInfo{No: 5, Name: "p5"}); err != nil {
		t.Fatal(err)
	}
	if err := SetPeer(p, portPath, vfs.Join(sw3, "ports", "5")); err != nil {
		t.Fatalf("SetPeer over dangling link: %v", err)
	}
	if name, no, ok := Peer(p, portPath); !ok || name != "sw3" || no != 5 {
		t.Fatalf("peer = %s %d %v", name, no, ok)
	}
}
