package driver

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"yanc/internal/libyanc"
	"yanc/internal/openflow"
	"yanc/internal/switchsim"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// holdPasses parks every flow-table pass of the rig's connections, on the
// reconciler's own hold, until the returned release is called, so a test
// can let marks pile up between two passes. It first waits for the
// connections to go idle: a pass already under way would otherwise slip
// past the hold.
func (r *rig) holdPasses(t *testing.T) (release func()) {
	t.Helper()
	eventually(t, "connections idle", func() bool {
		for _, sc := range r.conns {
			if sc.pend.Load() != 0 {
				return false
			}
		}
		return true
	})
	var releases []func()
	for _, sc := range r.conns {
		releases = append(releases, sc.flows.Hold())
	}
	release = func() {
		for _, rel := range releases {
			rel()
		}
	}
	t.Cleanup(release)
	return release
}

// idle reports whether the connection has nothing pending and nothing
// dirty: every mark so far has been through a pass.
func (sc *SwitchConn) idle() bool {
	st := sc.flows.Stats()
	return sc.pend.Load() == 0 && st.Dirty == 0 && !st.All && st.Owed == 0
}

// testSpec is the i-th of a family of flows with distinct identities.
func testSpec(i int) yancfs.FlowSpec {
	m, err := openflow.ParseMatch(fmt.Sprintf("dl_type=0x0800,nw_proto=6,nw_src=10.%d.%d.%d,tp_dst=%d", i>>16&0xff, i>>8&0xff, i&0xff, 1+i%60000))
	if err != nil {
		panic(err)
	}
	return yancfs.FlowSpec{
		Match:    m,
		Priority: uint16(100 + i%1000),
		Cookie:   uint64(i + 1),
		Actions:  []openflow.Action{{Type: openflow.ActSetNWTos, TOS: 16}, openflow.Output(uint32(1 + i%3))},
	}
}

// tableEqualsFS reports whether the switch's table is the fold of the
// file system's committed flows, the oracle bench/verify.go uses: one
// entry per (match, priority), carrying the cookie and actions of the
// flow directory that owns that identity.
func tableEqualsFS(y *yancfs.FS, sw *switchsim.Switch, switchPath string) (bool, string) {
	snaps, err := y.SnapshotFlows(switchPath)
	if err != nil {
		return false, err.Error()
	}
	stats := sw.FlowStats(openflow.Match{})
	if len(stats) != len(snaps) {
		return false, fmt.Sprintf("%s: switch holds %d entries, file system %d flows", switchPath, len(stats), len(snaps))
	}
next:
	for _, fs := range snaps {
		for _, st := range stats {
			if st.Priority != fs.Spec.Priority || !st.Match.Equal(fs.Spec.Match) {
				continue
			}
			if st.Cookie != fs.Spec.Cookie || openflow.FormatActions(st.Actions) != openflow.FormatActions(fs.Spec.Actions) {
				return false, fmt.Sprintf("%s: flow %s v%d installed with cookie %d actions %s, committed cookie %d actions %s", switchPath,
					fs.Name, fs.Version, st.Cookie, openflow.FormatActions(st.Actions), fs.Spec.Cookie, openflow.FormatActions(fs.Spec.Actions))
			}
			continue next
		}
		return false, fmt.Sprintf("%s: flow %s v%d is not on the switch", switchPath, fs.Name, fs.Version)
	}
	return true, ""
}

// converged waits until every connection of the rig is idle and every
// switch's table equals the fold of its flow directories.
func (r *rig) converged(t *testing.T) {
	t.Helper()
	var why string
	defer func() {
		if t.Failed() {
			t.Log(why)
		}
	}()
	eventually(t, "switch tables = file system", func() bool {
		r.y.VFS().SyncWatches()
		for dpid, sc := range r.conns {
			if len(r.d.mux.watch.C) > 0 || !sc.idle() {
				why = sc.Name + " not idle"
				return false
			}
			var ok bool
			if ok, why = tableEqualsFS(r.y, r.net.Switch(dpid), sc.Path); !ok {
				return false
			}
		}
		return true
	})
}

// modLog keeps the flow-mods a switch receives from logMods on, in
// arrival order.
type modLog struct {
	mu   sync.Mutex
	mods []openflow.FlowMod
}

func logMods(sw *switchsim.Switch) *modLog {
	l := &modLog{}
	sw.SetFlowModHook(func(fm *openflow.FlowMod) {
		l.mu.Lock()
		l.mods = append(l.mods, *fm)
		l.mu.Unlock()
	})
	return l
}

func (l *modLog) snapshot() []openflow.FlowMod {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]openflow.FlowMod(nil), l.mods...)
}

// TestCommitsBetweenPassesCoalesce: N commits to one flow while the
// connection's pass is held cost one read and one flow-add, at the last
// version.
func TestCommitsBetweenPassesCoalesce(t *testing.T) {
	r := newRig(t, openflow.Version13, 1)
	sc := r.attach(t, 1)
	sw := r.net.Switch(1)
	log := logMods(sw)
	release := r.holdPasses(t)
	const n = 5
	path := "/switches/sw1/flows/f"
	var last yancfs.FlowSpec
	for i := 0; i < n; i++ {
		last = testSpec(7) // one identity throughout
		last.Cookie = uint64(100 + i)
		last.Actions = []openflow.Action{openflow.Output(uint32(1 + i))}
		if v, err := yancfs.WriteFlow(r.y.Root(), path, last); err != nil || v != uint64(i+1) {
			t.Fatalf("commit %d: v%d %v", i, v, err)
		}
	}
	reconciled := sc.flows.Stats().Reconciled
	release()
	r.converged(t)
	adds := 0
	for _, fm := range log.snapshot() {
		if fm.Command == openflow.FlowAdd {
			adds++
		}
	}
	if adds < 1 || adds > n {
		t.Fatalf("%d commits cost %d flow-adds, want 1..%d", n, adds, n)
	}
	if adds != 1 {
		// Held from before the first commit to after the last, the pass
		// saw only the last version.
		t.Errorf("%d commits between two passes cost %d flow-adds, want 1", n, adds)
	}
	stats := sw.FlowStats(openflow.Match{})
	if len(stats) != 1 || stats[0].Cookie != last.Cookie || openflow.FormatActions(stats[0].Actions) != openflow.FormatActions(last.Actions) {
		t.Fatalf("switch did not end at the last version: %+v", stats)
	}
	if got := sc.flows.Stats().Reconciled - reconciled; got < 1 {
		t.Fatalf("no pass looked at the flow")
	}
}

// TestRecreateBetweenPassesDeletesOldIdentityFirst: a flow directory
// removed and recreated under the same name with another match, all
// between two passes, is a new flow whose version counts from 1 again.
// The old identity's delete-strict must reach the switch before the add.
func TestRecreateBetweenPassesDeletesOldIdentityFirst(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	sw := r.net.Switch(1)
	p := r.y.Root()
	path := "/switches/sw1/flows/f"
	old, fresh := testSpec(1), testSpec(2)
	if _, err := yancfs.WriteFlow(p, path, old); err != nil {
		t.Fatal(err)
	}
	r.converged(t)
	log := logMods(sw)
	release := r.holdPasses(t)
	if err := yancfs.DeleteFlow(p, path); err != nil {
		t.Fatal(err)
	}
	if v, err := yancfs.WriteFlow(p, path, fresh); err != nil || v != 1 {
		t.Fatalf("recreate: v%d %v", v, err)
	}
	release()
	r.converged(t)
	mods := log.snapshot()
	del, add := -1, -1
	for i, fm := range mods {
		switch {
		case fm.Command == openflow.FlowDeleteStrict && fm.Match.Equal(old.Match) && fm.Priority == old.Priority:
			del = i
		case fm.Command == openflow.FlowAdd && fm.Match.Equal(fresh.Match) && add < 0:
			add = i
		}
	}
	if del < 0 || add < 0 || del > add {
		t.Fatalf("delete-strict of the old identity at %d, add of the new at %d, in %d flow-mods", del, add, len(mods))
	}
	stats := sw.FlowStats(openflow.Match{})
	if len(stats) != 1 || !stats[0].Match.Equal(fresh.Match) {
		t.Fatalf("switch table = %+v", stats)
	}
}

// TestIdentitiesChangeHandsBetweenPasses: within one pass an identity one
// flow directory gives up may be the one another takes. The dirty set is
// taken in no order, so every delete-strict of a pass has to reach the
// switch before any of its adds, or the delete lands on the new owner's
// entry.
func TestIdentitiesChangeHandsBetweenPasses(t *testing.T) {
	r := newRig(t, openflow.Version13, 1)
	sc := r.attach(t, 1)
	p := r.y.Root()
	dir := "/switches/sw1/flows/"
	// marked waits until demux has turned every event so far into its
	// mark, so that the one pass released next takes them all.
	marked := func(dirty, gone int) {
		t.Helper()
		eventually(t, "events marked", func() bool {
			st := sc.flows.Stats()
			return st.Dirty == dirty && st.Owed == gone
		})
	}
	// as holds spec's identity under the writer's own cookie and actions,
	// so the oracle can tell whose entry the switch ended up with.
	as := func(writer, ident int) yancfs.FlowSpec {
		spec := testSpec(ident)
		spec.Cookie = uint64(1000 + writer)
		spec.Actions = []openflow.Action{openflow.Output(uint32(1 + writer))}
		return spec
	}
	write := func(name string, spec yancfs.FlowSpec) {
		t.Helper()
		if _, err := yancfs.WriteFlow(p, dir+name, spec); err != nil {
			t.Fatal(err)
		}
	}
	const pairs = 8
	for i := 0; i < pairs; i++ {
		write("a"+itoa(i), as(0, 2*i))
		write("b"+itoa(i), as(1, 2*i+1))
	}
	r.converged(t)
	for round := 0; round < 4; round++ {
		release := r.holdPasses(t)
		for i := 0; i < pairs; i++ {
			x, y := 2*i+round%2, 2*i+1-round%2 // what a and b hold now
			if i%2 == 0 {
				// a and b swap identities.
				write("a"+itoa(i), as(0, y))
				write("b"+itoa(i), as(1, x))
			} else {
				// a moves off x and a new flow commits with x; in the
				// next pass the new flow goes and a and b swap.
				write("a"+itoa(i), as(0, 100+2*i+round))
				write("c"+itoa(i)+"."+itoa(round), as(2, x))
			}
		}
		marked(2*pairs, 0)
		release()
		r.converged(t)
		release = r.holdPasses(t)
		for i := 1; i < pairs; i += 2 {
			if err := yancfs.DeleteFlow(p, dir+"c"+itoa(i)+"."+itoa(round)); err != nil {
				t.Fatal(err)
			}
			write("a"+itoa(i), as(0, 2*i+(round+1)%2))
			write("b"+itoa(i), as(1, 2*i+1-(round+1)%2))
		}
		marked(pairs, pairs/2)
		release()
		r.converged(t)
	}
}

// overflowWatch makes the driver's shared watch lose events for real:
// with demux parked on the driver's own lock (it needs it to look a
// connection up, which the first flow event makes it do), one transaction
// queues more junk writes than the watch buffers, and then lost runs while
// the buffer is still full. The junk file is called version, a name the
// watch takes, outside flows/, so ClassifyFlowEvent ignores it.
func (r *rig) overflowWatch(t *testing.T, lost func()) {
	t.Helper()
	before := r.d.mux.watch.Info().Overflows
	r.d.mu.Lock()
	unlocked := false
	defer func() {
		if !unlocked {
			r.d.mu.Unlock()
		}
	}()
	p := r.y.Root()
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/parks-demux", testSpec(999)); err != nil {
		t.Fatal(err)
	}
	const junk = "/switches/sw1/junk/" + yancfs.FileVersion
	if err := p.MkdirAll(vfs.Dir(junk), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString(junk, "x"); err != nil {
		t.Fatal(err)
	}
	err := r.y.VFS().WithTx(func(tx *vfs.Tx) error {
		for i := 0; i < muxWatchBuffer+1024; i++ {
			if err := tx.WriteFile(junk, []byte("x"), 0o644, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r.y.VFS().SyncWatches()
	if got := r.d.mux.watch.Info().Overflows; got == before {
		t.Fatalf("watch did not overflow (depth %d)", r.d.mux.watch.Info().Depth)
	}
	lost()
	r.y.VFS().SyncWatches()
	unlocked = true
	r.d.mu.Unlock()
}

// TestWatchOverflowRetiresRemovedFlows: a flow directory removed, and
// another rewritten, while the shared watch was dropping events. The
// reconcile-all pass the overflow falls back to must delete-strict the
// installed flow whose directory is gone, not only add what is there.
func TestWatchOverflowRetiresRemovedFlows(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	p := r.y.Root()
	for i := 0; i < 10; i++ {
		if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f"+itoa(i), testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.converged(t)
	r.overflowWatch(t, func() {
		if err := yancfs.DeleteFlow(p, "/switches/sw1/flows/f3"); err != nil {
			t.Fatal(err)
		}
		if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f5", testSpec(55)); err != nil {
			t.Fatal(err)
		}
	})
	r.converged(t)
	if n := r.net.Switch(1).FlowCount(); n != 10 { // ten, minus f3, plus parks-demux
		t.Fatalf("switch holds %d entries, want 10", n)
	}
}

// TestWatchOverflowRenameKeepsTableTrue: flow directories renamed while
// the shared watch was dropping events. To the reconcile-all pass the old
// names are gone and the new ones are unknown flows holding the same
// identities; the old names' delete-stricts must not land after the new
// names' adds.
func TestWatchOverflowRenameKeepsTableTrue(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.attach(t, 1)
	p := r.y.Root()
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f"+itoa(i), testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.converged(t)
	r.overflowWatch(t, func() {
		for i := 0; i < n; i++ {
			if err := p.Rename("/switches/sw1/flows/f"+itoa(i), "/switches/sw1/flows/g"+itoa(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	r.converged(t)
	if got := r.net.Switch(1).FlowCount(); got != n+1 { // plus parks-demux
		t.Fatalf("switch holds %d entries, want %d", got, n+1)
	}
}

// TestConvergenceBattery: file-I/O rewrites, ring puts and deletes and
// renames race on two switches, the watch overflows in the middle, and
// once everything has quiesced each switch's table must equal the fold
// of its flow directories.
func TestConvergenceBattery(t *testing.T) {
	r := newRig(t, openflow.Version13, 2)
	ring := libyanc.New(r.y).NewFlowRing(libyanc.RingConfig{})
	r.d.FlowInstalledHook = ring.InstallHook()
	r.attach(t, 1)
	r.attach(t, 2)
	p := r.y.Root()
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		for {
			if _, ok := ring.Reap(true); !ok {
				return
			}
		}
	}()
	const rounds = 60
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for _, sw := range []string{"sw1", "sw2"} {
		dir := "/switches/" + sw + "/flows/"
		base := 10000
		if sw == "sw2" {
			base = 20000
		}
		// Plain file I/O rewriting eight flows, identity included.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := yancfs.WriteFlow(p, dir+"w"+itoa(i%8), testSpec(base+i)); err != nil {
					errs <- err
					return
				}
			}
		}()
		// The ring putting and deleting, its deletes trailing its puts.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := ring.Submit(libyanc.SQE{Op: libyanc.OpPut, Path: dir + "r" + itoa(i), Spec: testSpec(base + 1000 + i)}); err != nil {
					errs <- err
					return
				}
				if i >= 10 {
					if err := ring.Submit(libyanc.SQE{Op: libyanc.OpDelete, Path: dir + "r" + itoa(i-10)}); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
		// Renames of committed flows, back and forth.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := yancfs.WriteFlow(p, dir+"n0", testSpec(base+5000)); err != nil {
				errs <- err
				return
			}
			for i := 0; i < rounds; i++ {
				if err := p.Rename(dir+"n"+itoa(i), dir+"n"+itoa(i+1)); err != nil {
					errs <- err
					return
				}
				if i%7 == 0 {
					if _, err := yancfs.WriteFlow(p, dir+"n"+itoa(i+1), testSpec(base+5000+i)); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	r.overflowWatch(t, func() {
		if _, err := yancfs.WriteFlow(p, "/switches/sw2/flows/lost", testSpec(31000)); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}
	<-reaped
	r.converged(t)
}

// TestBurstLeavesNothingGrown: what a burst grows in the driver — the
// write buffers and the install hook's scratch — is given back once the
// burst has drained. The reconciler's own share (the dirty set, the owed
// retirements, the pass's scratch) is TestReconcilerBurstLeavesNothingGrown
// in yancfs.
func TestBurstLeavesNothingGrown(t *testing.T) {
	r := newRig(t, openflow.Version13, 1)
	sc := r.attach(t, 1)
	ring := libyanc.New(r.y).NewFlowRing(libyanc.RingConfig{SQDepth: 1024})
	go func() {
		for {
			if _, ok := ring.Reap(true); !ok {
				return
			}
		}
	}()
	const burst = 4096
	submit := func(op libyanc.OpKind) {
		t.Helper()
		for i := 0; i < burst; i++ {
			if err := ring.Submit(libyanc.SQE{Op: op, Path: "/switches/sw1/flows/b" + itoa(i), Spec: testSpec(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ring.Flush(); err != nil {
			t.Fatal(err)
		}
		r.y.VFS().SyncWatches()
	}
	release := r.holdPasses(t)
	submit(libyanc.OpPut)
	eventually(t, "burst marked", func() bool {
		return len(r.d.mux.watch.C) == 0 && sc.flows.Stats().Dirty == burst
	})
	release()
	eventually(t, "burst installed", func() bool { return r.net.Switch(1).FlowCount() == burst && sc.idle() })

	release = r.holdPasses(t)
	submit(libyanc.OpDelete)
	eventually(t, "removals marked", func() bool {
		return len(r.d.mux.watch.C) == 0 && sc.flows.Stats().Owed == burst
	})
	release()
	eventually(t, "burst deleted", func() bool { return r.net.Switch(1).FlowCount() == 0 && sc.idle() })
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}
	// The worker is done with the connection (idle), so its scratch can
	// be read from here. The install hook's scratch grows by append to
	// hold a pass's adds, at most 256, so it stops within one growth step
	// of that.
	if c := cap(sc.pushed); c > 2*256 {
		t.Errorf("install-hook scratch kept cap %d > %d", c, 2*256)
	}
	if c := max(cap(sc.wdel), cap(sc.wadd)); c > bufKeep {
		t.Errorf("write buffer kept cap %d > %d", c, bufKeep)
	}
}

// discardSwitch attaches a hand-written OF 1.0 switch that reads and
// drops whatever the driver sends: a peer that costs the process no
// allocation per flow-mod, for the allocation pins.
func discardSwitch(t *testing.T, d *Driver) *SwitchConn {
	t.Helper()
	ctrl, sw := tcpPair(t)
	sc, _ := attachScripted(t, d, ctrl, sw, nil)
	go func() { _, _ = io.Copy(io.Discard, sw) }()
	t.Cleanup(func() { sw.Close() })
	return sc
}

// TestReconcileAllocs pins the allocation cost of the event path and the
// pass. The connection is kept off the run queue — its word reads
// "served", so no mark queues it — and the test goroutine, the only one
// allocating, runs the connection's passes itself.
func TestReconcileAllocs(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	d := New(y)
	d.EchoInterval = 0
	t.Cleanup(d.Close)
	sc := discardSwitch(t, d)
	flowPath := sc.Path + "/flows/f"
	if _, err := yancfs.WriteFlow(y.Root(), flowPath, testSpec(3)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "installed", func() bool {
		return sc.pushedN.Load() == 1 && sc.idle() && sc.pend.CompareAndSwap(0, pendServing)
	})

	root := "/switches/"
	stray := vfs.Event{Op: vfs.OpWrite, Path: flowPath + "/match.nw_src"}
	if n := testing.AllocsPerRun(200, func() { d.mux.route(root, &stray) }); n != 0 {
		t.Errorf("classifying a non-flow event: %v allocs, want 0", n)
	}
	commit := vfs.Event{Op: vfs.OpWrite, Path: flowPath + "/version"}
	if marks := yancfs.ClassifyFlowEvent(root, &commit); marks != [2]yancfs.FlowMark{{Switch: sc.Name, Kind: yancfs.FlowCommit, Path: flowPath}} {
		t.Fatalf("ClassifyFlowEvent(%s) = %v", commit.Path, marks)
	}
	if n := testing.AllocsPerRun(200, func() { d.mux.route(root, &commit) }); n != 0 {
		t.Errorf("marking a flow: %v allocs, want 0 amortised", n)
	}
	coalesced := sc.flows.Stats().Coalesced
	if n := testing.AllocsPerRun(200, func() {
		d.mux.route(root, &commit)
		sc.reconcileFlows()
	}); n != 0 {
		t.Errorf("reconciling an unchanged flow: %v allocs, want 0", n)
	}
	if sc.flows.Stats().Coalesced == coalesced {
		t.Fatal("the unchanged flow was not looked at")
	}
	gone := vfs.Event{Op: vfs.OpRemove, Path: flowPath, IsDir: true}
	for _, c := range []struct {
		name string
		mark func()
	}{
		// The switch is behind the committed version of a known flow:
		// the pass installs it over its recorded state.
		{"a known flow one commit behind", func() { sc.flows.Retranslate() }},
		// A remove and a recreate between two passes: the pass sends the
		// delete-strict of the old entry and the add of the new flow.
		{"a removed and recreated flow", func() {
			d.mux.route(root, &gone)
			d.mux.route(root, &commit)
		}},
	} {
		pushed := sc.pushedN.Load()
		if n := testing.AllocsPerRun(200, func() {
			c.mark()
			sc.reconcileFlows()
		}); n > 8 {
			t.Errorf("reconciling %s: %v allocs, want <= 8", c.name, n)
		} else {
			t.Logf("reconciling %s: %v allocs", c.name, n)
		}
		if sc.pushedN.Load() == pushed {
			t.Fatalf("%s was not pushed", c.name)
		}
	}
}

// classifyCase is an event under switches/ and what it means to the
// driver: marks on its flow table, or a switch and port to mark.
type classifyCase struct {
	ev    vfs.Event
	flows [2]yancfs.FlowMark
	sw    string
	port  uint32
}

// classifyCases is TestClassify's table.
func classifyCases() []classifyCase {
	type mark = yancfs.FlowMark
	fm := func(sw string, kind yancfs.FlowEvent, path string) mark {
		return mark{Switch: sw, Kind: kind, Path: path}
	}
	return []classifyCase{
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/switches/sw1/flows/f/version"}, flows: [2]mark{fm("sw1", yancfs.FlowCommit, "/switches/sw1/flows/f")}},
		{ev: vfs.Event{Op: vfs.OpRemove, Path: "/switches/sw1/flows/f", IsDir: true}, flows: [2]mark{fm("sw1", yancfs.FlowGone, "/switches/sw1/flows/f")}},
		{ev: vfs.Event{Op: vfs.OpRename, Path: "/switches/sw1/flows/f", NewPath: "/switches/sw1/flows/g", IsDir: true}, flows: [2]mark{fm("sw1", yancfs.FlowMove, "/switches/sw1/flows/g")}},
		{ev: vfs.Event{Op: vfs.OpRename, Path: "/switches/sw1/flows/f", NewPath: "/switches/sw2/flows/f", IsDir: true},
			flows: [2]mark{fm("sw1", yancfs.FlowGone, "/switches/sw1/flows/f"), fm("sw2", yancfs.FlowCommit, "/switches/sw2/flows/f")}},
		{ev: vfs.Event{Op: vfs.OpRename, Path: "/staging/f", NewPath: "/switches/sw2/flows/f", IsDir: true}, flows: [2]mark{fm("sw2", yancfs.FlowCommit, "/switches/sw2/flows/f")}},
		{ev: vfs.Event{Op: vfs.OpRename, Path: "/switches/sw1/flows/f", NewPath: "/switches/sw1/f", IsDir: true}, flows: [2]mark{fm("sw1", yancfs.FlowGone, "/switches/sw1/flows/f")}},
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/switches/sw2/ports/4294967295/config.port_down"}, sw: "sw2", port: 4294967295},
		// Everything else stays in demux.
		{ev: vfs.Event{Op: vfs.OpRename, Path: "/switches/sw1/flows/f", NewPath: "/switches/sw2/flows/f"}}, // files, not flow directories
		{ev: vfs.Event{Op: vfs.OpRename, Path: "/switches/sw1/flows", NewPath: "/switches/sw1/old", IsDir: true}},
		{ev: vfs.Event{Op: vfs.OpRemove, Path: "/switches/sw1/flows/f/version"}},
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/switches/sw1/flows/f/match.tp_dst"}},
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/switches/sw1/flows/f/counters/version"}},
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/switches/sw1/flows/version"}},
		{ev: vfs.Event{Op: vfs.OpRemove, Path: "/switches/sw1/flows/f"}}, // a file, not a flow directory
		{ev: vfs.Event{Op: vfs.OpRemove, Path: "/switches/sw1/flows", IsDir: true}},
		{ev: vfs.Event{Op: vfs.OpRemove, Path: "/switches/sw1", IsDir: true}},
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/switches/sw1/ports/4294967296/config.port_down"}},
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/switches/sw1/ports/x1/config.port_down"}},
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/switches/sw1/ports//config.port_down"}},
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/switches/sw1/ports/1/config.port_status"}},
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/hosts/h1/flows/f/version"}},
		{ev: vfs.Event{Op: vfs.OpWrite, Path: "/switches/status"}},
	}
}

// TestClassify: what each event under switches/ means to the driver,
// to its flow table (yancfs.ClassifyFlowEvent) or to the rest of the
// connection (classify).
func TestClassify(t *testing.T) {
	const root = "/switches/"
	for _, c := range classifyCases() {
		if flows := yancfs.ClassifyFlowEvent(root, &c.ev); flows != c.flows {
			t.Errorf("ClassifyFlowEvent(%v %s → %s) = %v, want %v", c.ev.Op, c.ev.Path, c.ev.NewPath, flows, c.flows)
			continue
		}
		if c.flows[0].Kind != yancfs.NoFlowEvent {
			continue
		}
		if sw, port, ok := classify(root, &c.ev); sw != c.sw || port != c.port || ok != (c.sw != "") {
			t.Errorf("classify(%v %s) = %q %d %v, want %q %d", c.ev.Op, c.ev.Path, sw, port, ok, c.sw, c.port)
		}
	}
}

// TestClassifyFilter: the driver's watch filter and its classifiers
// cannot drift apart. Each event of TestClassify's table that the driver
// acts on is raised for real under a watch subscribed as newMux
// subscribes, and must arrive.
func TestClassifyFilter(t *testing.T) {
	for _, c := range classifyCases() {
		if c.flows[0].Kind == yancfs.NoFlowEvent && c.sw == "" {
			continue
		}
		fs := vfs.New()
		p := fs.RootProc()
		w, err := p.AddWatch(yancfs.DirSwitches, muxWatchMask, vfs.Recursive(), vfs.Files(muxWatchFiles()...))
		if err != nil {
			t.Fatal(err)
		}
		if err := raise(p, c.ev); err != nil {
			t.Fatalf("raising %v %s: %v", c.ev.Op, c.ev.Path, err)
		}
		fs.SyncWatches()
		var got []vfs.Event
		for len(w.C) > 0 {
			got = append(got, <-w.C)
		}
		w.Close()
		if !slices.Contains(got, c.ev) {
			t.Errorf("the driver's watch missed %v %s → %s (got %v)", c.ev.Op, c.ev.Path, c.ev.NewPath, got)
		}
	}
}

// raise makes ev happen on p: a write, a removal or a rename of a file or
// directory, its parents made first.
func raise(p *vfs.Proc, ev vfs.Event) error {
	create := func(path string, dir bool) error {
		if dir {
			return p.MkdirAll(path, 0o755)
		}
		if err := p.MkdirAll(vfs.Dir(path), 0o755); err != nil {
			return err
		}
		return p.WriteString(path, "1")
	}
	switch ev.Op {
	case vfs.OpWrite:
		return create(ev.Path, false)
	case vfs.OpRemove:
		if err := create(ev.Path, ev.IsDir); err != nil {
			return err
		}
		return p.Remove(ev.Path)
	case vfs.OpRename:
		if err := create(ev.Path, ev.IsDir); err != nil {
			return err
		}
		if err := p.MkdirAll(vfs.Dir(ev.NewPath), 0o755); err != nil {
			return err
		}
		return p.Rename(ev.Path, ev.NewPath)
	}
	return fmt.Errorf("cannot raise %v", ev.Op)
}
