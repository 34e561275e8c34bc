package apps

import (
	"maps"
	"reflect"
	"slices"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// view is the body the slicer and the big switch share (§4.2: views are
// translator apps that "stack arbitrarily"); each brings its translator.
// One goroutine turns the recursive view watch's events into marks on a
// yancfs.Reconciler per view switch, the core the driver uses too, and
// runs their passes, whose Flush writes into the region below. A
// subscription's goroutine translates packet-ins up into the view.
type view struct {
	y    *yancfs.FS
	p    *vfs.Proc
	path string // <region>/views/<name>
	root string // <path>/switches/, what the view watch's events are classified under
	tr   translator
	// cache is the big switch's topology: compilations read it, its
	// watches wake the loop, and a change of links retranslates all.
	cache *topoCache
	links map[PortRef]PortRef

	tables  map[string]*yancfs.Reconciler[[]string] // view switch -> its flow table
	watch   *vfs.Watch
	cases   []reflect.SelectCase // what next waits on (selectCases)
	casesAt uint64               // the cache rebuild cases were listed after
	sub     subscription
	done    chan struct{}
	staged  []staged // what the running pass's Install and Retire handed over
}

// translator is what makes a view a slice or a big switch.
type translator interface {
	// flow translates the committed flow name of view switch sw into the
	// flows it becomes in the region below. It runs inside a pass's read
	// transaction, so it must not touch the file system.
	flow(sw, name string, spec yancfs.FlowSpec) ([]target, error)
	// packetIn translates a packet-in of the region below into the view:
	// the view switch it appears at and the message, or ok false when
	// the packet is not the view's.
	packetIn(ev yancfs.PacketInEvent) (sw string, pi *openflow.PacketIn, ok bool)
}

// target is one flow a view flow becomes in the region below.
type target struct {
	path string
	spec yancfs.FlowSpec
}

// staged is what a pass found to do for the view flow at path (empty for
// a retirement): write targets below, remove what old names and the
// targets written do not, and write err into the flow's error file, or
// remove that file.
type staged struct {
	path    string
	targets []target
	old     []string
	err     error
}

// viewSink is a view seen as the yancfs.Sink of each of its tables. The
// state a table records for a view flow is the paths its translation
// names below.
type viewSink view

// viewWatchDepth is the view watch's queue: a few hundred file-I/O
// commits between two turns of the loop. An overflow costs a full pass.
const viewWatchDepth = 4096

// start translates the flows of the view switches down and the
// packet-ins of region up, as app, until stop.
func (v *view) start(y *yancfs.FS, region, path, app string, switches []string, tr translator) error {
	v.y, v.p, v.path, v.root, v.tr = y, y.Root(), path, vfs.Join(path, yancfs.DirSwitches)+"/", tr
	w, err := v.p.AddWatch(vfs.Join(path, yancfs.DirSwitches),
		vfs.OpWrite|vfs.OpRemove|vfs.OpRename, vfs.Recursive(), vfs.BufferSize(viewWatchDepth))
	if err != nil {
		return err
	}
	if err := v.sub.start(v.p, region, app, v.deliver); err != nil {
		w.Close()
		return err
	}
	v.watch = w
	v.tables = make(map[string]*yancfs.Reconciler[[]string], len(switches))
	for _, sw := range switches {
		v.tables[sw] = yancfs.NewReconciler[[]string](y.VFS(),
			vfs.Join(path, yancfs.DirSwitches, sw, "flows"), (*viewSink)(v))
	}
	v.selectCases()
	v.done = make(chan struct{})
	go v.loop()
	return nil
}

// Stop shuts the translation down and removes every watch it placed. A
// pass parked on a table's Hold must be released first.
func (v *view) Stop() {
	if v.done == nil {
		return
	}
	v.watch.Close()
	<-v.done
	v.sub.close()
	if v.cache != nil {
		v.cache.close()
	}
	v.done = nil
}

// loop runs passes until every table is idle, then waits for an event.
func (v *view) loop() {
	defer close(v.done)
	for {
		for v.next(false) {
		}
		v.retopologize()
		busy := false
		for _, t := range v.tables {
			busy = t.Pass() || busy
		}
		if !busy && !v.next(true) {
			return
		}
	}
}

// next takes one event off the view watch, routing it, or off one of the
// topology cache's watches, marking the cache stale; it waits for one if
// block is set. It reports false when there was none to take or Stop has
// closed the view watch.
func (v *view) next(block bool) bool {
	if v.cache != nil && v.casesAt != v.cache.rebuilds {
		v.selectCases()
	}
	cases := v.cases
	if block {
		cases = cases[:len(cases)-1]
	}
	chosen, ev, ok := reflect.Select(cases)
	switch {
	case !block && chosen == len(cases)-1, chosen == 0 && !ok:
		return false
	case chosen > 0:
		v.cache.stale = true // the event the cache would have drained
	default:
		e := ev.Interface().(vfs.Event)
		v.route(&e)
	}
	return true
}

// selectCases lists what next waits on: the view watch, the topology
// cache's switches and ports watches (a host record moves no link, and
// the next refresh drains hosts/), a set only a rebuild of the cache
// changes, and the default case a next that does not block ends with.
func (v *view) selectCases() {
	recv := func(w *vfs.Watch) reflect.SelectCase {
		return reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(w.C)}
	}
	v.cases = append(v.cases[:0], recv(v.watch))
	if c := v.cache; c != nil && c.switches != nil {
		v.casesAt = c.rebuilds
		v.cases = append(v.cases, recv(c.switches))
		for _, w := range c.ports {
			v.cases = append(v.cases, recv(w))
		}
	}
	v.cases = append(v.cases, reflect.SelectCase{Dir: reflect.SelectDefault})
}

// route turns one view event into a mark on the table it concerns. A
// translation's targets are named after the view flow, so a renamed flow
// is the old one gone and a new one committed, not a moved installation.
func (v *view) route(ev *vfs.Event) {
	if ev.Op == vfs.OpOverflow {
		for _, t := range v.tables {
			t.MarkAll()
		}
		return
	}
	sw, kind, flowPath := yancfs.ClassifyFlowEvent(v.root, ev)
	t := v.tables[sw]
	if t == nil {
		return
	}
	if kind == yancfs.FlowMove {
		t.Apply(yancfs.FlowGone, ev.Path, ev)
		kind = yancfs.FlowCommit
	}
	t.Apply(kind, flowPath, ev)
}

// retopologize brings the big switch's topology up to date and has every
// flow compiled again when the links moved.
func (v *view) retopologize() {
	if v.cache == nil {
		return
	}
	v.cache.refresh()
	if maps.Equal(v.links, v.cache.topo.Links) {
		return
	}
	v.links = v.cache.topo.Links
	for _, t := range v.tables {
		t.Retranslate()
	}
}

// deliver hands a packet-in of the region below to the view, translated.
func (v *view) deliver(ev yancfs.PacketInEvent) {
	if sw, pi, ok := v.tr.packetIn(ev); ok {
		_ = v.y.DeliverPacketIn(v.path, sw, pi)
	}
}

// Install translates a changed view flow and stages the writes.
func (t *viewSink) Install(path string, _ uint64, spec *yancfs.FlowSpec, prev []string, _ bool) []string {
	s := *spec
	s.Actions = slices.Clone(spec.Actions)
	sw, _, _ := yancfs.UnderSwitch(t.root, path)
	targets, err := t.tr.flow(sw, vfs.Base(path), s)
	t.staged = append(t.staged, staged{path: path, targets: targets, old: prev, err: err})
	paths := make([]string, len(targets))
	for i, tg := range targets {
		paths[i] = tg.path
	}
	return paths
}

// Retire stages the removal of what a gone view flow's translation names.
func (t *viewSink) Retire(paths []string) { t.staged = append(t.staged, staged{old: paths}) }

// Unreadable stages the report of a view flow that would not parse.
func (t *viewSink) Unreadable(path string, err error) {
	t.staged = append(t.staged, staged{path: path, err: err})
}

// Flush writes what the pass staged into the region below. A flow that
// does not translate, or whose translation cannot be written, keeps
// nothing below and says why in its error file.
func (t *viewSink) Flush() {
	v := (*view)(t)
	for _, op := range v.staged {
		err := op.err
		var written []string
		for _, tg := range op.targets {
			written = append(written, tg.path) // a failed write may leave a partial directory
			if _, err = yancfs.WriteFlow(v.p, tg.path, tg.spec); err != nil {
				break
			}
		}
		if err != nil {
			v.remove(written, nil)
			written = nil
		}
		v.remove(op.old, written)
		switch {
		case op.path == "":
		case err != nil:
			_ = v.p.WriteString(vfs.Join(op.path, "error"), err.Error()+"\n")
		default:
			_ = v.p.Remove(vfs.Join(op.path, "error")) // there only after a rejection
		}
	}
	clear(v.staged)
	v.staged = v.staged[:0]
}

// mkdirs makes, in order, each of dirs that does not exist yet: what
// Create makes for a view, which may be made again over an existing one.
func mkdirs(p *vfs.Proc, dirs ...string) error {
	for _, dir := range dirs {
		if p.Exists(dir) {
			continue
		}
		if err := p.Mkdir(dir, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// remove deletes the flow directories of the region below that paths
// names and keep does not.
func (v *view) remove(paths, keep []string) {
	for _, p := range paths {
		if !slices.Contains(keep, p) {
			_ = v.p.RemoveAll(p)
		}
	}
}
