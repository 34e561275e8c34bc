package apps

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// waitFor is eventually with room for a resync over a few hundred flows
// under the race detector.
func waitFor(t *testing.T, what string, cond func() (bool, string)) {
	t.Helper()
	var why string
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var ok bool
		if ok, why = cond(); ok {
			return
		}
	}
	t.Fatalf("timed out waiting for %s: %s", what, why)
}

// hold parks every pass of the view's tables until release. It first
// waits for the view to go idle: the pass over every name that Start
// asks for would otherwise find, after the hold, whatever the events
// said.
func (v *view) hold(t *testing.T) (release func()) {
	t.Helper()
	waitFor(t, "view idle", func() (bool, string) { return v.idle(), "" })
	var releases []func()
	for _, t := range v.tables {
		releases = append(releases, t.Hold())
	}
	return func() {
		for _, rel := range releases {
			rel()
		}
	}
}

// idle reports whether every table of the view has nothing left to do.
func (v *view) idle() bool {
	for _, t := range v.tables {
		if st := t.Stats(); st.Dirty != 0 || st.Owed != 0 || st.All {
			return false
		}
	}
	return len(v.watch.C) == 0
}

// translatedAsFolded reports whether the flows of region named with
// prefix are exactly the translation of the view's committed flows: the
// region table equals translate(fold of the view).
func translatedAsFolded(y *yancfs.FS, v *view, translate func(sw, name string, spec yancfs.FlowSpec) ([]target, error),
	region, prefix string) (bool, string) {
	y.VFS().SyncWatches()
	if !v.idle() {
		return false, "view not idle"
	}
	want := map[string]yancfs.FlowSpec{}
	for sw := range v.tables {
		snaps, err := y.SnapshotFlows(vfs.Join(v.path, yancfs.DirSwitches, sw))
		if err != nil {
			return false, err.Error()
		}
		for _, s := range snaps {
			targets, err := translate(sw, s.Name, s.Spec)
			if err != nil {
				continue // rejected: nothing below
			}
			for _, tg := range targets {
				want[tg.path] = tg.spec
			}
		}
	}
	have := map[string]yancfs.FlowSpec{}
	switches, err := yancfs.ListSwitches(y.Root(), region)
	if err != nil {
		return false, err.Error()
	}
	for _, sw := range switches {
		swPath := vfs.Join(region, yancfs.DirSwitches, sw)
		snaps, err := y.SnapshotFlows(swPath)
		if err != nil {
			return false, err.Error()
		}
		for _, s := range snaps {
			if strings.HasPrefix(s.Name, prefix) {
				have[vfs.Join(swPath, "flows", s.Name)] = s.Spec
			}
		}
	}
	if len(have) != len(want) {
		return false, fmt.Sprintf("%s holds %d translated flows, the view translates to %d", region, len(have), len(want))
	}
	for path, w := range want {
		h, ok := have[path]
		if !ok {
			return false, path + " missing"
		}
		if h.Priority != w.Priority || h.Cookie != w.Cookie || !h.Match.Equal(w.Match) ||
			openflow.FormatActions(h.Actions) != openflow.FormatActions(w.Actions) {
			return false, fmt.Sprintf("%s holds %v %v, want %v %v", path, h.Match, h.Actions, w.Match, w.Actions)
		}
	}
	return true, ""
}

// viewEdits makes n seeded edits to the flows of one view switch —
// creates, rewrites, removes and renames, one in ten of them out of what
// the view can translate — while spec(i, bad) supplies the i-th flow. It
// parks the view's translator after the first quarter, once that is
// translated, and forces the view watch to overflow after the first half;
// the caller releases the translator.
func viewEdits(t *testing.T, p *vfs.Proc, v *view, sw string, n int, spec func(i int, bad bool) yancfs.FlowSpec) (release func()) {
	t.Helper()
	dir := vfs.Join(v.path, yancfs.DirSwitches, sw, "flows")
	rng := rand.New(rand.NewSource(28))
	var live []string
	next := 0
	for i := 0; i < n; i++ {
		if i == n/4 {
			release = v.hold(t)
			t.Cleanup(release)
		}
		if i == n/2 {
			overflow(t, p, v, vfs.Join(v.path, yancfs.DirSwitches, sw, "junk"))
		}
		op := rng.Intn(10)
		switch {
		case op < 4 || len(live) == 0:
			name := fmt.Sprintf("f%d", next)
			next++
			if _, err := yancfs.WriteFlow(p, vfs.Join(dir, name), spec(i, rng.Intn(10) == 0)); err != nil {
				t.Fatal(err)
			}
			live = append(live, name)
		case op < 7:
			if _, err := yancfs.WriteFlow(p, vfs.Join(dir, live[rng.Intn(len(live))]), spec(i, rng.Intn(10) == 0)); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			k := rng.Intn(len(live))
			if err := yancfs.DeleteFlow(p, vfs.Join(dir, live[k])); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		default:
			k := rng.Intn(len(live))
			name := fmt.Sprintf("f%d", next)
			next++
			if err := p.Rename(vfs.Join(dir, live[k]), vfs.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
			live[k] = name
		}
	}
	return release
}

// overflow queues more events than the view watch holds; the view's
// translator must be parked, so that nothing drains them. The flood
// writes a file called version in the junk directory: a name the watch
// takes, outside flows/, so ClassifyFlowEvent ignores it.
func overflow(t *testing.T, p *vfs.Proc, v *view, junk string) {
	t.Helper()
	before := v.watch.Info().Overflows
	if err := p.MkdirAll(junk, 0o755); err != nil {
		t.Fatal(err)
	}
	junk = vfs.Join(junk, yancfs.FileVersion)
	if err := p.WriteString(junk, "x"); err != nil {
		t.Fatal(err)
	}
	err := v.y.VFS().WithTx(func(tx *vfs.Tx) error {
		for i := 0; i < viewWatchDepth+64; i++ {
			if err := tx.WriteFile(junk, []byte("x"), 0o644, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v.y.VFS().SyncWatches()
	if v.watch.Info().Overflows == before {
		t.Fatalf("the view watch did not overflow (depth %d)", v.watch.Info().Depth)
	}
}

// sliceSpec is a view flow of the http slice; bad ones ask for port 22.
func sliceSpec(i int, bad bool) yancfs.FlowSpec {
	m, err := openflow.ParseMatch(fmt.Sprintf("in_port=%d,nw_src=10.%d.%d.0/24", 1+i%3, i>>8&0xff, i&0xff))
	if bad {
		m, err = openflow.ParseMatch(fmt.Sprintf("dl_type=0x0800,nw_proto=6,tp_dst=22,nw_src=10.%d.%d.0/24", i>>8&0xff, i&0xff))
	}
	if err != nil {
		panic(err)
	}
	return yancfs.FlowSpec{Match: m, Priority: uint16(10 + i), Cookie: uint64(i), Actions: []openflow.Action{openflow.Output(uint32(1 + i%3))}}
}

// bigSpec is a flow of a big switch mapping v1 and v2; bad ones send to
// an unmapped port.
func bigSpec(i int, bad bool) yancfs.FlowSpec {
	in, out := uint32(1+i%2), uint32(2-i%2)
	if bad {
		out = 9
	}
	m, err := openflow.ParseMatch(fmt.Sprintf("in_port=%d,dl_type=0x0800,nw_dst=10.%d.%d.%d", in, i>>16&0xff, i>>8&0xff, i&0xff))
	if err != nil {
		panic(err)
	}
	return yancfs.FlowSpec{Match: m, Priority: uint16(10 + i), Cookie: uint64(i), Actions: []openflow.Action{openflow.Output(out)}}
}

// TestChaosViewOverflowConverges: 500 edits to a view, the last three
// quarters made while its translator is parked over what the first
// installed and its watch overflowing halfway through, leave the
// region below holding exactly the translation of what the view holds —
// for a slice, a big switch, and a big switch stacked on a slice.
func TestChaosViewOverflowConverges(t *testing.T) {
	const edits = 500
	t.Run("slice", func(t *testing.T) {
		r := newLinearRig(t, 2)
		filter, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=80")
		sl := NewSlicer(r.y, "/", "http", filter, []string{"sw1", "sw2"})
		if err := sl.Create(); err != nil {
			t.Fatal(err)
		}
		if err := sl.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sl.Stop)
		release := viewEdits(t, r.y.Root(), &sl.view, "sw1", edits, sliceSpec)
		release()
		waitFor(t, "master = translate(fold of the slice)", func() (bool, string) {
			return translatedAsFolded(r.y, &sl.view, sl.flow, "/", "slice-http-")
		})
	})
	t.Run("bigswitch", func(t *testing.T) {
		r := newLinearRig(t, 2)
		discover(t, r)
		bs := NewBigSwitch(r.y, "/", "corp", map[uint32]PortRef{1: {"sw1", 1}, 2: {"sw2", 1}})
		if err := bs.Create(); err != nil {
			t.Fatal(err)
		}
		if err := bs.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(bs.Stop)
		release := viewEdits(t, r.y.Root(), &bs.view, "big0", edits, bigSpec)
		release()
		compile := compiler(t, bs)
		waitFor(t, "master = translate(fold of the big switch)", func() (bool, string) {
			return translatedAsFolded(r.y, &bs.view, compile, "/", "vnet-corp-")
		})
	})
	t.Run("stacked", func(t *testing.T) {
		r := newLinearRig(t, 2)
		discover(t, r)
		filter, _ := openflow.ParseMatch("dl_type=0x0800")
		sl := NewSlicer(r.y, "/", "ip-only", filter, []string{"sw1", "sw2"})
		if err := sl.Create(); err != nil {
			t.Fatal(err)
		}
		if err := sl.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sl.Stop)
		bs := NewBigSwitch(r.y, "/views/ip-only", "flat", map[uint32]PortRef{1: {"sw1", 1}, 2: {"sw2", 1}})
		if err := bs.Create(); err != nil {
			t.Fatal(err)
		}
		if err := bs.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(bs.Stop)
		release := viewEdits(t, r.y.Root(), &bs.view, "big0", edits, bigSpec)
		release()
		compile := compiler(t, bs)
		waitFor(t, "slice = translate(fold of the big switch), master = translate(fold of the slice)", func() (bool, string) {
			if ok, why := translatedAsFolded(r.y, &bs.view, compile, "/views/ip-only", "vnet-flat-"); !ok {
				return false, "big switch: " + why
			}
			if ok, why := translatedAsFolded(r.y, &sl.view, sl.flow, "/", "slice-ip-only-"); !ok {
				return false, "slice: " + why
			}
			return true, ""
		})
	})
}

// TestViewRenameAfterInstallConverges: a view flow renamed once its
// translation is installed is translated again under its new name, so a
// flow then created under the old name, and the removal of the renamed
// one, leave the region below holding the translation of the view — for a
// slice and for a big switch.
func TestViewRenameAfterInstallConverges(t *testing.T) {
	renames := func(t *testing.T, y *yancfs.FS, v *view, sw string, spec func(int, bool) yancfs.FlowSpec,
		translate func(sw, name string, spec yancfs.FlowSpec) ([]target, error), prefix string) {
		p, dir := y.Root(), vfs.Join(v.path, yancfs.DirSwitches, sw, "flows")
		converged := func(what string) {
			t.Helper()
			waitFor(t, what, func() (bool, string) { return translatedAsFolded(y, v, translate, "/", prefix) })
		}
		if _, err := yancfs.WriteFlow(p, dir+"/f", spec(1, false)); err != nil {
			t.Fatal(err)
		}
		converged("f translated")
		if err := p.Rename(dir+"/f", dir+"/g"); err != nil {
			t.Fatal(err)
		}
		converged("f renamed to g")
		if _, err := yancfs.WriteFlow(p, dir+"/f", spec(2, false)); err != nil {
			t.Fatal(err)
		}
		converged("a new f beside g")
		if err := yancfs.DeleteFlow(p, dir+"/g"); err != nil {
			t.Fatal(err)
		}
		converged("g removed")
	}
	t.Run("slice", func(t *testing.T) {
		r := newLinearRig(t, 2)
		filter, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=80")
		sl := NewSlicer(r.y, "/", "http", filter, []string{"sw1"})
		if err := sl.Create(); err != nil {
			t.Fatal(err)
		}
		if err := sl.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sl.Stop)
		renames(t, r.y, &sl.view, "sw1", sliceSpec, sl.flow, "slice-http-")
	})
	t.Run("bigswitch", func(t *testing.T) {
		r := newLinearRig(t, 2)
		discover(t, r)
		bs := NewBigSwitch(r.y, "/", "corp", map[uint32]PortRef{1: {"sw1", 1}, 2: {"sw2", 1}})
		if err := bs.Create(); err != nil {
			t.Fatal(err)
		}
		if err := bs.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(bs.Stop)
		renames(t, r.y, &bs.view, "big0", bigSpec, compiler(t, bs), "vnet-corp-")
	})
}

// TestViewFlowRenamedInIsTranslated: a flow directory made outside a view
// and renamed into one of its switches' flows/ — the shell's atomic
// publish — is translated, and renamed back out, its translation goes.
func TestViewFlowRenamedInIsTranslated(t *testing.T) {
	r := newLinearRig(t, 2)
	filter, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=80")
	sl := NewSlicer(r.y, "/", "http", filter, []string{"sw1"})
	if err := sl.Create(); err != nil {
		t.Fatal(err)
	}
	if err := sl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sl.Stop)
	p, dir := r.y.Root(), vfs.Join(sl.view.path, yancfs.DirSwitches, "sw1", "flows")
	if err := p.Mkdir("/staging", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := yancfs.WriteFlow(p, "/staging/f", sliceSpec(1, false)); err != nil {
		t.Fatal(err)
	}
	if err := p.Rename("/staging/f", dir+"/f"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a flow renamed into the slice translated", func() (bool, string) {
		names, _ := yancfs.ListFlows(p, "/switches/sw1")
		if !slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, "slice-http-") }) {
			return false, fmt.Sprintf("the master holds no translation: %q", names)
		}
		return translatedAsFolded(r.y, &sl.view, sl.flow, "/", "slice-http-")
	})
	if err := p.Rename(dir+"/f", "/staging/f"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a flow renamed out of the slice retired", func() (bool, string) {
		return translatedAsFolded(r.y, &sl.view, sl.flow, "/", "slice-http-")
	})
}

// compiler is b's translation over its region's topology as it is now,
// on a cache of its own: the running big switch's belongs to its
// goroutine.
func compiler(t *testing.T, b *BigSwitch) func(sw, name string, spec yancfs.FlowSpec) ([]target, error) {
	shadow := &BigSwitch{Y: b.Y, Region: b.Region, Name: b.Name, VSwitchName: b.VSwitchName, PortMap: b.PortMap}
	shadow.cache = newTopoCache(b.Y.Root(), b.Region)
	t.Cleanup(shadow.cache.close)
	return func(sw, name string, spec yancfs.FlowSpec) ([]target, error) {
		shadow.cache.refresh()
		return shadow.flow(sw, name, spec)
	}
}

// discover writes the rig's peer links the way topod does.
func discover(t *testing.T, r *rig) {
	t.Helper()
	td := NewTopod(r.y.Root(), "/")
	if err := td.DiscoverOnce(); err != nil {
		t.Fatal(err)
	}
	td.Stop()
}

// TestSlicerUntranslatableEditRetiresTwin: a slice flow rewritten out of
// the slice's header space takes its master twin, and the twin's
// hardware entry, with it; rewritten back in, the twin returns and the
// error file goes.
func TestSlicerUntranslatableEditRetiresTwin(t *testing.T) {
	r := newLinearRig(t, 2)
	filter, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=80")
	sl := NewSlicer(r.y, "/", "http", filter, []string{"sw1"})
	if err := sl.Create(); err != nil {
		t.Fatal(err)
	}
	if err := sl.Start(); err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	p := r.y.Root()
	flow, twin, errFile := "/views/http/switches/sw1/flows/f", "/switches/sw1/flows/slice-http-f", "/views/http/switches/sw1/flows/f/error"
	write := func(match string) {
		t.Helper()
		m, err := openflow.ParseMatch(match)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := yancfs.WriteFlow(p, flow, yancfs.FlowSpec{Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(3)}}); err != nil {
			t.Fatal(err)
		}
	}
	write("in_port=1")
	eventually(t, "twin on the switch", func() bool { return p.Exists(twin) && r.net.Switch(1).FlowCount() == 1 })
	write("tp_dst=22")
	eventually(t, "twin and its entry gone, error file written", func() bool {
		return p.Exists(errFile) && !p.Exists(twin) && r.net.Switch(1).FlowCount() == 0
	})
	write("in_port=2")
	eventually(t, "twin back, error file gone", func() bool {
		spec, err := yancfs.ReadFlow(p, twin)
		return err == nil && spec.Match.InPort == 2 && !p.Exists(errFile) && r.net.Switch(1).FlowCount() == 1
	})
}

// TestBigSwitchUntranslatableEditRetiresChain: the same for a big switch
// flow rewritten to an unmapped port: its compiled chain goes.
func TestBigSwitchUntranslatableEditRetiresChain(t *testing.T) {
	r := newLinearRig(t, 2)
	discover(t, r)
	bs := NewBigSwitch(r.y, "/", "corp", map[uint32]PortRef{1: {"sw1", 1}, 2: {"sw2", 1}})
	if err := bs.Create(); err != nil {
		t.Fatal(err)
	}
	if err := bs.Start(); err != nil {
		t.Fatal(err)
	}
	defer bs.Stop()
	p := r.y.Root()
	flow, errFile := "/views/corp/switches/big0/flows/fwd", "/views/corp/switches/big0/flows/fwd/error"
	compiled := func() int {
		n := 0
		for _, sw := range []string{"sw1", "sw2"} {
			names, _ := yancfs.ListFlows(p, "/switches/"+sw)
			for _, name := range names {
				if strings.HasPrefix(name, "vnet-corp-fwd-") {
					n++
				}
			}
		}
		return n
	}
	write := func(out uint32) {
		t.Helper()
		m, _ := openflow.ParseMatch("in_port=1")
		if _, err := yancfs.WriteFlow(p, flow, yancfs.FlowSpec{Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(out)}}); err != nil {
			t.Fatal(err)
		}
	}
	write(2)
	eventually(t, "compiled chain", func() bool { return compiled() == 2 })
	write(9)
	eventually(t, "chain gone, error file written", func() bool { return p.Exists(errFile) && compiled() == 0 })
	write(2)
	eventually(t, "chain back, error file gone", func() bool { return compiled() == 2 && !p.Exists(errFile) })
}

// TestBigSwitchRecompilesOnLinkDown: a three-switch line with a redundant
// link sw1/2 — sw3/3 that the compiled path takes; removing that link,
// with no edit to the view, moves the path through sw2.
func TestBigSwitchRecompilesOnLinkDown(t *testing.T) {
	r := newLinearRig(t, 3)
	discover(t, r)
	p := r.y.Root()
	a, b := "/switches/sw1/ports/2", "/switches/sw3/ports/3"
	if err := yancfs.SetPeer(p, a, b); err != nil {
		t.Fatal(err)
	}
	if err := yancfs.SetPeer(p, b, a); err != nil {
		t.Fatal(err)
	}
	bs := NewBigSwitch(r.y, "/", "corp", map[uint32]PortRef{1: {"sw1", 1}, 2: {"sw3", 1}})
	if err := bs.Create(); err != nil {
		t.Fatal(err)
	}
	if err := bs.Start(); err != nil {
		t.Fatal(err)
	}
	defer bs.Stop()
	m, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/views/corp/switches/big0/flows/fwd", yancfs.FlowSpec{
		Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	// path reads the compiled chain as switch:out-port hops in switch order.
	path := func() string {
		var hops []string
		for _, sw := range []string{"sw1", "sw2", "sw3"} {
			names, _ := yancfs.ListFlows(p, "/switches/"+sw)
			for _, name := range names {
				if !strings.HasPrefix(name, "vnet-corp-fwd-") {
					continue
				}
				spec, err := yancfs.ReadFlow(p, "/switches/"+sw+"/flows/"+name)
				if err != nil || len(spec.Actions) != 1 {
					return "unreadable " + name
				}
				hops = append(hops, fmt.Sprintf("%s:%d", sw, spec.Actions[0].Port))
			}
		}
		return strings.Join(hops, " ")
	}
	eventually(t, "path over the redundant link", func() bool { return path() == "sw1:2 sw3:1" })
	for _, link := range []string{a + "/peer", b + "/peer"} {
		if err := p.Remove(link); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "path through sw2", func() bool { return path() == "sw1:3 sw2:3 sw3:1" })
}

// TestStopRemovesEveryWatch: every app that consumes packet-ins leaves
// the watch count where it found it, whether it was started, subscribed
// without a loop, or ran a synchronous round.
func TestStopRemovesEveryWatch(t *testing.T) {
	r := newLinearRig(t, 2)
	discover(t, r)
	fs, p := r.y.VFS(), r.y.Root()
	filter, _ := openflow.ParseMatch("dl_type=0x0800")
	for _, c := range []struct {
		name string
		run  func() (stop func(), err error)
	}{
		{"topod DiscoverOnce", func() (func(), error) { td := NewTopod(p, "/"); return td.Stop, td.DiscoverOnce() }},
		{"topod Start", func() (func(), error) { td := NewTopod(p, "/"); return td.Stop, td.Start() }},
		{"router EnsureSubscribed", func() (func(), error) { rt := NewRouter(p, "/"); return rt.Stop, rt.EnsureSubscribed() }},
		{"router Start", func() (func(), error) { rt := NewRouter(p, "/"); return rt.Stop, rt.Start() }},
		{"arpd EnsureSubscribed", func() (func(), error) { ad := NewARPd(p, "/"); return ad.Stop, ad.EnsureSubscribed() }},
		{"arpd Start", func() (func(), error) { ad := NewARPd(p, "/"); return ad.Stop, ad.Start() }},
		{"dhcpd EnsureSubscribed", func() (func(), error) {
			dh := NewDHCPd(p, "/", ethernet.IP4{10, 0, 0, 100}, 4)
			return dh.Stop, dh.EnsureSubscribed()
		}},
		{"dhcpd Start", func() (func(), error) {
			dh := NewDHCPd(p, "/", ethernet.IP4{10, 0, 0, 100}, 4)
			return dh.Stop, dh.Start()
		}},
		{"slicer Start", func() (func(), error) {
			sl := NewSlicer(r.y, "/", "s", filter, []string{"sw1"})
			if err := sl.Create(); err != nil {
				return func() {}, err
			}
			return sl.Stop, sl.Start()
		}},
		{"big switch Start", func() (func(), error) {
			bs := NewBigSwitch(r.y, "/", "b", map[uint32]PortRef{1: {"sw1", 1}, 2: {"sw2", 1}})
			if err := bs.Create(); err != nil {
				return func() {}, err
			}
			return bs.Stop, bs.Start()
		}},
	} {
		start := len(fs.WatchInfos())
		stop, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		stop()
		if n := len(fs.WatchInfos()); n != start {
			t.Errorf("%s then Stop: %d watches, want %d", c.name, n, start)
		}
	}
}
