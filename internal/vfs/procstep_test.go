package vfs

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// allocsPerCall is testing.AllocsPerRun for call alone: setup runs before
// each call and is not counted.
func allocsPerCall(runs int, setup, call func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	setup()
	call() // warm up, as AllocsPerRun does
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total) / float64(runs)
}

// TestAllocProcMutations pins what one mutating Proc call allocates, each
// a one-step transaction on a small tree with no watch. The bounds are
// the counts the calls had when mkdir and remove still kept a body per
// entry point and Symlink, Link, Remove, RemoveAll and Rename opened
// their transaction after taking the tree lock: MkdirRef 5, Remove 4,
// RemoveAll 4, Rename 7, Symlink 6, Link 4. Under the race detector,
// whose sync.Pool drops some of what is put back, a call may also build
// its event buffer anew: the buffer, and its storage once per event, up
// to three objects more.
func TestAllocProcMutations(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/a/f", "x"); err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	renamed := false
	for _, c := range []struct {
		name  string
		want  float64
		setup func()
		call  func()
	}{
		{"MkdirRef", 5, func() { check(p.RemoveAll("/a/d")) }, func() { _, err := p.MkdirRef("/a/d", 0o755); check(err) }},
		{"Remove", 4, func() { check(p.WriteString("/a/r", "x")) }, func() { check(p.Remove("/a/r")) }},
		{"RemoveAll", 4, func() { check(p.Mkdir("/a/t", 0o755)) }, func() { check(p.RemoveAll("/a/t")) }},
		{"Rename", 7, func() {}, func() {
			if renamed {
				check(p.Rename("/a/g", "/a/f"))
			} else {
				check(p.Rename("/a/f", "/a/g"))
			}
			renamed = !renamed
		}},
		{"Symlink", 6, func() { _ = p.Remove("/a/l") }, func() { check(p.Symlink("f", "/a/l")) }},
		{"Link", 4, func() { _ = p.Remove("/a/h") }, func() {
			src := "/a/f"
			if renamed {
				src = "/a/g"
			}
			check(p.Link(src, "/a/h"))
		}},
	} {
		if raceEnabled {
			c.want += 3
		}
		if n := allocsPerCall(100, c.setup, c.call); n > c.want {
			t.Errorf("%s allocates %.2f objects per call, want <= %.0f", c.name, n, c.want)
		} else {
			t.Logf("%s: %.2f allocations per call", c.name, n)
		}
	}
}

// parityTree builds the tree every case of TestProcCallMatchesProcTx runs
// on, below base ("" for the root):
//
//	/home        0755 1000:1000
//	/home/f      0644 1000:1000  "old"
//	/home/d/     0755 1000:1000  holding x
func parityTree(t *testing.T, base string) *FS {
	t.Helper()
	fs := New()
	p := fs.RootProc()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.MkdirAll(base+"/home/d", 0o755))
	must(p.WriteString(base+"/home/f", "old"))
	must(p.WriteString(base+"/home/d/x", "x"))
	for _, path := range []string{"/home", "/home/f", "/home/d", "/home/d/x"} {
		must(p.Chown(base+path, 1000, 1000))
	}
	return fs
}

// stepOutcome is what one operation leaves behind: its errno, the node at
// the path it names (kind, mode and ids; "" when there is none), what the
// limiter was charged, and the structural events raised.
type stepOutcome struct {
	err     error
	node    string
	charges []string
	events  []string
}

// TestProcCallMatchesProcTx runs each mutating operation two ways — as
// the Proc call, and as the one step of that Proc's transaction — for
// root, the owner of the tree, a stranger and the owner confined by
// Chroot, each on a fresh copy of one tree, and requires the same errno,
// the same resulting node, the same limiter charges and the same Create,
// Remove and Rename events. Where the step is WriteFile the Proc call is
// a whole-file write, an open and a write, and the step one write: they
// must bill the same bytes — none when a check refuses the write, the
// content's when it goes ahead. The Write and CloseWrite events are the
// call's own.
func TestProcCallMatchesProcTx(t *testing.T) {
	data := []byte("new")
	type op struct {
		name  string
		path  string // the node the outcome describes
		call  func(p *Proc) error
		step  func(tx *Tx, c Cred) error
		write bool
	}
	mkdir := func(path string, mode FileMode) op {
		return op{fmt.Sprintf("mkdir %s %#o", path, mode), path,
			func(p *Proc) error { return p.Mkdir(path, mode) },
			func(tx *Tx, c Cred) error { return tx.Mkdir(path, mode, c.UID, c.GID) }, false}
	}
	write := func(what, path string, mode FileMode) op {
		return op{fmt.Sprintf("%s %s %#o", what, path, mode), path,
			func(p *Proc) error { return p.WriteFile(path, data, mode) },
			func(tx *Tx, c Cred) error { return tx.WriteFile(path, data, mode, c.UID, c.GID) }, true}
	}
	ops := []op{
		mkdir("/home/n", 0o755),
		mkdir("/home/n", 0o4755),
		mkdir("/home/f", 0o755),
		write("create", "/home/n", 0o644),
		write("create", "/home/n", 0o4644),
		write("rewrite", "/home/f", 0o600),
		write("write onto a directory", "/home/d", 0o644),
		{"remove a subtree", "/home/d",
			func(p *Proc) error { return p.RemoveAll("/home/d") },
			func(tx *Tx, _ Cred) error { return tx.Remove("/home/d") }, false},
		{"remove a file", "/home/f",
			func(p *Proc) error { return p.RemoveAll("/home/f") },
			func(tx *Tx, _ Cred) error { return tx.Remove("/home/f") }, false},
		{"rename", "/home/g",
			func(p *Proc) error { return p.Rename("/home/f", "/home/g") },
			func(tx *Tx, _ Cred) error { return tx.Rename("/home/f", "/home/g") }, false},
		{"rename onto a directory", "/home/d",
			func(p *Proc) error { return p.Rename("/home/f", "/home/d") },
			func(tx *Tx, _ Cred) error { return tx.Rename("/home/f", "/home/d") }, false},
	}
	owner := Cred{UID: 1000, GID: 1000}
	callers := []struct {
		name string
		cred Cred
		jail string
	}{
		{"root", Root, ""},
		{"owner", owner, ""},
		{"stranger", Cred{UID: 2000, GID: 2000}, ""},
		{"owner in a chroot", owner, "/jail"},
	}
	observe := func(t *testing.T, cred Cred, jail string, o op, run func(p *Proc) error) stepOutcome {
		t.Helper()
		fs := parityTree(t, jail)
		lim := &chargeLog{}
		p := fs.Proc(cred).WithLimiter(lim)
		if jail != "" {
			var err error
			if p, err = p.Chroot(jail); err != nil {
				t.Fatal(err)
			}
		}
		w, err := fs.RootProc().AddWatch("/", OpAll, Recursive())
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var out stepOutcome
		out.err = errKind(run(p))
		out.charges = lim.got
		if st, err := fs.RootProc().Lstat(jail + o.path); err == nil {
			out.node = fmt.Sprintf("%v %#o %d:%d", st.Kind, st.Mode, st.UID, st.GID)
		}
		fs.SyncWatches()
		for len(w.C) > 0 {
			ev := <-w.C
			if ev.Op&(OpCreate|OpRemove|OpRename) != 0 {
				out.events = append(out.events, fmt.Sprintf("%v %s %s", ev.Op, ev.Path, ev.NewPath))
			}
		}
		return out
	}
	for _, c := range callers {
		for _, o := range ops {
			t.Run(c.name+"/"+o.name, func(t *testing.T) {
				want := observe(t, c.cred, c.jail, o, o.call)
				got := observe(t, c.cred, c.jail, o, func(p *Proc) error {
					return p.WithTx(func(tx *Tx) error { return o.step(tx, c.cred) })
				})
				if o.write {
					if g, w := billed(t, got.charges), billed(t, want.charges); g != w {
						t.Errorf("step billed %d bytes (%v), Proc call %d (%v)", g, got.charges, w, want.charges)
					}
					if len(got.charges) != 1 {
						t.Errorf("step charged %v, want one write", got.charges)
					}
					got.charges, want.charges = nil, nil
				}
				if got.err != want.err {
					t.Errorf("step error %v, Proc call %v", got.err, want.err)
				}
				if got.node != want.node {
					t.Errorf("step left %q, Proc call %q", got.node, want.node)
				}
				if !reflect.DeepEqual(got.charges, want.charges) {
					t.Errorf("step charged %v, Proc call %v", got.charges, want.charges)
				}
				if !reflect.DeepEqual(got.events, want.events) {
					t.Errorf("step raised %q, Proc call %q", got.events, want.events)
				}
			})
		}
	}
}

// billed sums the bytes of charges, each "op:n" as chargeLog records it.
func billed(t *testing.T, charges []string) int {
	t.Helper()
	total := 0
	for _, c := range charges {
		_, n, ok := strings.Cut(c, ":")
		v, err := strconv.Atoi(n)
		if !ok || err != nil {
			t.Fatalf("charge %q is not op:n", c)
		}
		total += v
	}
	return total
}

// TestWriteTreeAnnouncesRealPath: a tree written through a symlink, or
// through "..", raises its events under the real path, where a watch on
// the real directory sees them.
func TestWriteTreeAnnouncesRealPath(t *testing.T) {
	for _, dir := range []string{"/sw/x", "/other/../switches/x", "/switches/x"} {
		t.Run(dir, func(t *testing.T) {
			fs := New()
			p := fs.RootProc()
			for _, d := range []string{"/switches", "/other"} {
				if err := p.Mkdir(d, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Symlink("/switches", "/sw"); err != nil {
				t.Fatal(err)
			}
			w, err := p.AddWatch("/switches", OpCreate, Recursive())
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			err = fs.WithTx(func(tx *Tx) error {
				return tx.WriteTree(dir, []FileData{{Name: "f", Data: []byte("1")}}, 0o755, 0o644, 0, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
			fs.SyncWatches()
			var got []string
			for len(w.C) > 0 {
				got = append(got, (<-w.C).Path)
			}
			if want := "[/switches/x /switches/x/f]"; fmt.Sprint(got) != want {
				t.Errorf("events %q, want %s", got, want)
			}
		})
	}
}
