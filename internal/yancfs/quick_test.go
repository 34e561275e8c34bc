package yancfs

import (
	"fmt"
	"math/rand"
	"testing"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
)

// randomSpec builds a random but valid flow spec.
func randomSpec(r *rand.Rand) FlowSpec {
	var m openflow.Match
	set := func(f openflow.Field, v string) {
		if err := m.SetField(f, v); err != nil {
			panic(err)
		}
	}
	if r.Intn(2) == 0 {
		set(openflow.FieldInPort, fmt.Sprint(r.Intn(48)+1))
	}
	if r.Intn(2) == 0 {
		set(openflow.FieldDLSrc, fmt.Sprintf("02:00:00:00:%02x:%02x", r.Intn(256), r.Intn(256)))
	}
	if r.Intn(2) == 0 {
		set(openflow.FieldDLVLAN, fmt.Sprint(r.Intn(4095)))
		set(openflow.FieldDLVLANPCP, fmt.Sprint(r.Intn(8)))
	}
	if r.Intn(2) == 0 {
		set(openflow.FieldDLType, "0x0800")
		if r.Intn(2) == 0 {
			set(openflow.FieldNWTos, fmt.Sprint(r.Intn(64)<<2))
		}
		if r.Intn(2) == 0 {
			set(openflow.FieldNWProto, fmt.Sprint([]int{1, 6, 17}[r.Intn(3)]))
			if r.Intn(2) == 0 {
				set(openflow.FieldTPSrc, fmt.Sprint(r.Intn(65536)))
			}
			if r.Intn(2) == 0 {
				set(openflow.FieldTPDst, fmt.Sprint(r.Intn(65536)))
			}
		}
		if r.Intn(2) == 0 {
			bits := r.Intn(25) + 8
			addr := fmt.Sprintf("10.%d.%d.0", r.Intn(256), r.Intn(256))
			pm, err := openflow.ParseMatch("nw_src=" + addr + "/" + fmt.Sprint(bits))
			if err == nil {
				// Canonicalize: mask off host bits so round trips compare.
				pfx := pm.NWSrc
				pfx.Addr = ethernet.IP4FromUint32(pfx.Addr.Uint32() & pfx.Mask())
				m.NWSrc = pfx
				m.Set |= openflow.FieldNWSrc
			}
		}
	}
	spec := FlowSpec{
		Match:       m,
		Priority:    uint16(r.Intn(65536)),
		IdleTimeout: uint16(r.Intn(1000)),
		HardTimeout: uint16(r.Intn(1000)),
		Cookie:      uint64(r.Intn(1 << 30)),
	}
	// One of each action kind at most (file names are unique per kind).
	if r.Intn(2) == 0 {
		spec.Actions = append(spec.Actions, openflow.Action{Type: openflow.ActSetNWTos, TOS: uint8(r.Intn(64) << 2)})
	}
	if r.Intn(2) == 0 {
		spec.Actions = append(spec.Actions, openflow.Action{Type: openflow.ActStripVLAN})
	}
	spec.Actions = append(spec.Actions, openflow.Output(uint32(r.Intn(48)+1)))
	return spec
}

// specsEquivalent compares a written spec against its read-back form,
// tolerating the canonical action reordering.
func specsEquivalent(a, b FlowSpec) bool {
	if !a.Match.Equal(b.Match) || a.Priority != b.Priority ||
		a.IdleTimeout != b.IdleTimeout || a.HardTimeout != b.HardTimeout ||
		a.Cookie != b.Cookie || len(a.Actions) != len(b.Actions) {
		return false
	}
	have := map[string]bool{}
	for _, act := range b.Actions {
		have[act.String()] = true
	}
	for _, act := range a.Actions {
		if !have[act.String()] {
			return false
		}
	}
	return true
}

// TestQuickFlowRoundTrip checks WriteFlow → ReadFlow identity for random
// specs, and that the fastpath produces an equivalent read-back.
func TestQuickFlowRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	y := newFS(t)
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		spec := randomSpec(r)
		flowPath := fmt.Sprintf("/switches/sw1/flows/q%d", i%10) // reuse paths: rewrites
		if _, err := WriteFlow(p, flowPath, spec); err != nil {
			t.Fatalf("iter %d write: %v (spec %+v)", i, err, spec)
		}
		got, err := ReadFlow(p, flowPath)
		if err != nil {
			t.Fatalf("iter %d read: %v", i, err)
		}
		if !specsEquivalent(spec, got) {
			t.Fatalf("iter %d: round trip mismatch\nwrote %+v\nread  %+v", i, spec, got)
		}
		// Fastpath equivalence on the same spec.
		fastPath := fmt.Sprintf("/switches/sw1/flows/fast%d", i%10)
		if err := y.VFS().WithTx(func(tx *vfs.Tx) error {
			_, err := PutFlowTx(tx, fastPath, spec)
			return err
		}); err != nil {
			t.Fatalf("iter %d fastpath: %v", i, err)
		}
		fgot, err := ReadFlow(p, fastPath)
		if err != nil {
			t.Fatalf("iter %d fast read: %v", i, err)
		}
		if !specsEquivalent(spec, fgot) {
			t.Fatalf("iter %d: fastpath mismatch\nwrote %+v\nread  %+v", i, spec, fgot)
		}
	}
}

// TestQuickVersionMonotonic checks that rewrites always advance the
// version, regardless of path.
func TestQuickVersionMonotonic(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	y := newFS(t)
	p := y.Root()
	if _, err := CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	last := map[string]uint64{}
	for i := 0; i < 200; i++ {
		flowPath := fmt.Sprintf("/switches/sw1/flows/v%d", r.Intn(5))
		v, err := WriteFlow(p, flowPath, randomSpec(r))
		if err != nil {
			t.Fatal(err)
		}
		if v <= last[flowPath] {
			t.Fatalf("iter %d: version did not advance: %d after %d", i, v, last[flowPath])
		}
		last[flowPath] = v
	}
}
