package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// chargeLog is a Limiter that records what it was charged.
type chargeLog struct {
	mu  sync.Mutex
	got []string
}

func (l *chargeLog) Charge(op string, n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.got = append(l.got, fmt.Sprintf("%s:%d", op, n))
	return nil
}

// atTree builds the tree every case of TestAtCallsMatchPathCalls runs on:
//
//	/d           0755 root   the referenced directory
//	/d/f         0644 root   "old\n"
//	/d/secret    0600 root   "s\n"
//	/d/sub/      0755 root   holding x
//	/d/link   -> f
//	/d/syn                   synthetic, read "live", write recorded
//	/open        0777 root   a directory anyone may create in
//	/open/mine   0644 uid 7
//
// all of it below base ("" for the root), where a confined Proc can be
// rooted.
func atTree(t *testing.T, base string) (fs *FS, synWrites *[][]byte) {
	t.Helper()
	fs = New()
	p := fs.RootProc()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	if base != "" {
		var err error
		must(p.Mkdir(base, 0o755))
		p, err = p.Chroot(base)
		must(err)
	}
	must(p.MkdirAll("/d/sub", 0o755))
	must(p.WriteString("/d/f", "old\n"))
	must(p.WriteFile("/d/secret", []byte("s\n"), 0o600))
	must(p.WriteString("/d/sub/x", "x\n"))
	must(p.Symlink("f", "/d/link"))
	must(p.Mkdir("/open", 0o777))
	must(p.WithCred(Cred{UID: 7, GID: 7}).WriteString("/open/mine", "m\n"))
	var writes [][]byte
	must(fs.WithTx(func(tx *Tx) error {
		return tx.SetSynthetic(base+"/d/syn", &Synthetic{
			Read:  func() ([]byte, error) { return []byte("live"), nil },
			Write: func(b []byte) error { writes = append(writes, b); return nil },
		}, 0o644, 0, 0)
	}))
	return fs, &writes
}

// errKind reduces an error to the errno it wraps.
func errKind(err error) error {
	for _, e := range []error{ErrNotExist, ErrExist, ErrNotDir, ErrIsDir, ErrNotEmpty, ErrPerm, ErrAccess, ErrInvalid, ErrQuota} {
		if errors.Is(err, e) {
			return e
		}
	}
	return err
}

// outcome is everything one call leaves behind that a caller, a limiter,
// /.proc/vfs or a watcher can see.
type outcome struct {
	result  any
	err     error
	charges []string
	ops     OpStats
	events  []Event
}

// observeAt runs call on a fresh atTree as cred — confined to jail when
// that is not "" — and collects its outcome. The reference to dir is
// taken before anything is counted: the test is about the calls made
// through it.
func observeAt(t *testing.T, cred Cred, jail, dir string, call func(p *Proc, ref DirRef) (any, error)) outcome {
	t.Helper()
	fs, _ := atTree(t, jail)
	lim := &chargeLog{}
	p := fs.Proc(cred).WithLimiter(lim)
	if jail != "" {
		var err error
		if p, err = p.Chroot(jail); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := p.DirRef(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs.RootProc().AddWatch("/", OpAll, Recursive())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lim.got = nil
	before := fs.Stats()
	var o outcome
	o.result, o.err = call(p, ref)
	o.err = errKind(o.err)
	o.ops = fs.Stats().Sub(before)
	o.ops.Lookups = 0 // components walked: the one thing a reference is meant to change
	o.charges = lim.got
	fs.SyncWatches()
	for len(w.C) > 0 {
		o.events = append(o.events, <-w.C)
	}
	return o
}

// TestAtCallsMatchPathCalls runs every directory-relative call beside the
// path-based call it replaces, each on its own copy of one tree, and
// requires the same result, the same errno, the same limiter charges in
// the same order, the same OpStats delta and the same event sequence —
// for a Proc that sees the whole tree and for one confined by Chroot.
func TestAtCallsMatchPathCalls(t *testing.T) {
	user := Cred{UID: 7, GID: 7}
	type call = func(p *Proc, ref DirRef) (any, error)
	write := func(path, name string) (call, call) {
		return func(p *Proc, _ DirRef) (any, error) { return nil, p.WriteFile(path, []byte("new\n"), 0o644) },
			func(p *Proc, ref DirRef) (any, error) { return nil, p.WriteFileAt(ref, name, []byte("new\n"), 0o644) }
	}
	read := func(path, name string) (call, call) {
		return func(p *Proc, _ DirRef) (any, error) { return p.ReadFile(path) },
			func(p *Proc, ref DirRef) (any, error) { return p.ReadFileAt(ref, name) }
	}
	exists := func(path, name string) (call, call) {
		return func(p *Proc, _ DirRef) (any, error) { return p.Exists(path), nil },
			func(p *Proc, ref DirRef) (any, error) { return p.ExistsAt(ref, name), nil }
	}
	readdir := func(path, name string) (call, call) {
		return func(p *Proc, _ DirRef) (any, error) { return p.ReadDir(path) },
			func(p *Proc, ref DirRef) (any, error) { return drain(p.OpenDirAt(ref, name)) }
	}
	remove := func(path, name string) (call, call) {
		return func(p *Proc, _ DirRef) (any, error) { return nil, p.Remove(path) },
			func(p *Proc, ref DirRef) (any, error) { return nil, p.RemoveAt(ref, name) }
	}
	cases := []struct {
		name   string
		cred   Cred
		dir    string
		mk     func(path, name string) (call, call)
		entry  string
		events []EventOp // nil: whatever the path-based call raised
	}{
		{"write new", Root, "/d", write, "fresh", []EventOp{OpCreate, OpWrite, OpCloseWrite}},
		{"write existing", Root, "/d", write, "f", []EventOp{OpWrite, OpWrite, OpCloseWrite}},
		{"write onto a directory", Root, "/d", write, "sub", []EventOp{}},
		{"write through a symlink", Root, "/d", write, "link", []EventOp{OpWrite, OpWrite, OpCloseWrite}},
		{"write a synthetic file", Root, "/d", write, "syn", []EventOp{OpCloseWrite}},
		{"write new, directory not writable", user, "/d", write, "fresh", []EventOp{}},
		{"write existing, file not writable", user, "/d", write, "f", []EventOp{}},
		{"write new, as a user", user, "/open", write, "fresh", []EventOp{OpCreate, OpWrite, OpCloseWrite}},
		{"write existing, as its owner", user, "/open", write, "mine", []EventOp{OpWrite, OpWrite, OpCloseWrite}},
		{"write an unclean name", Root, "/d", write, "sub/../f", []EventOp{OpWrite, OpWrite, OpCloseWrite}},
		{"read", Root, "/d", read, "f", nil},
		{"read missing", Root, "/d", read, "nope", nil},
		{"read a directory", Root, "/d", read, "sub", nil},
		{"read unreadable", user, "/d", read, "secret", nil},
		{"read through a symlink", Root, "/d", read, "link", nil},
		{"read a synthetic file", Root, "/d", read, "syn", nil},
		{"exists", Root, "/d", exists, "f", nil},
		{"exists missing", Root, "/d", exists, "nope", nil},
		{"exists through a symlink", Root, "/d", exists, "link", nil},
		{"readdir of the directory itself", Root, "/d", readdir, ".", nil},
		{"readdir of a child", Root, "/d", readdir, "sub", nil},
		{"readdir missing", Root, "/d", readdir, "nope", nil},
		{"readdir of a file", Root, "/d", readdir, "f", nil},
		{"remove a file", Root, "/d", remove, "f", []EventOp{OpRemove}},
		{"remove a symlink", Root, "/d", remove, "link", []EventOp{OpRemove}},
		{"remove missing", Root, "/d", remove, "nope", []EventOp{}},
		{"remove a directory that is not empty", Root, "/d", remove, "sub", []EventOp{}},
		{"remove, directory not writable", user, "/d", remove, "f", []EventOp{}},
	}
	for _, jail := range []string{"", "/jail"} {
		for _, tc := range cases {
			t.Run(tc.name+" in "+jail+"/", func(t *testing.T) {
				byPath, byRef := tc.mk(tc.dir+"/"+tc.entry, tc.entry)
				want := observeAt(t, tc.cred, jail, tc.dir, byPath)
				got := observeAt(t, tc.cred, jail, tc.dir, byRef)
				if !reflect.DeepEqual(got.result, want.result) {
					t.Errorf("result %v, path-based call gave %v", got.result, want.result)
				}
				if got.err != want.err {
					t.Errorf("error %v, path-based call gave %v", got.err, want.err)
				}
				if !reflect.DeepEqual(got.charges, want.charges) {
					t.Errorf("limiter charged %v, path-based call %v", got.charges, want.charges)
				}
				if got.ops != want.ops {
					t.Errorf("OpStats delta %+v, path-based call %+v", got.ops, want.ops)
				}
				if !reflect.DeepEqual(got.events, want.events) {
					t.Errorf("events %v, path-based call %v", got.events, want.events)
				}
				if tc.events != nil {
					var ops []EventOp
					for _, ev := range got.events {
						ops = append(ops, ev.Op)
					}
					if len(ops) != len(tc.events) || (len(ops) > 0 && !reflect.DeepEqual(ops, tc.events)) {
						t.Errorf("event sequence %v, want %v", ops, tc.events)
					}
				}
			})
		}
	}
}

// TestAtSyntheticWriteReachesProvider: a whole-file write of a synthetic
// child, by either route, hands the provider the content once.
func TestAtSyntheticWriteReachesProvider(t *testing.T) {
	fs, writes := atTree(t, "")
	p := fs.RootProc()
	ref, err := p.DirRef("/d")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFileAt(ref, "syn", []byte("fed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if len(*writes) != 1 || string((*writes)[0]) != "fed" {
		t.Fatalf("provider saw %q, want one write of \"fed\"", *writes)
	}
	if b, err := p.ReadFileAt(ref, "syn"); err != nil || string(b) != "live" {
		t.Fatalf("read of the synthetic child = %q, %v", b, err)
	}
}

// countNodes walks the whole tree.
func countNodes(t *testing.T, p *Proc) int {
	t.Helper()
	n := 0
	if err := p.Walk("/", func(string, Stat) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRefAfterRemove: a reference pins nothing. Once its directory — or
// an ancestor — is removed every call through it is ErrNotExist, and a
// write creates no node anywhere, not even in a directory later made
// under the same name.
func TestRefAfterRemove(t *testing.T) {
	for _, victim := range []string{"/a/b/d", "/a"} {
		t.Run("remove "+victim, func(t *testing.T) {
			fs := New()
			p := fs.RootProc()
			if err := p.MkdirAll("/a/b/d", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := p.WriteString("/a/b/d/f", "v\n"); err != nil {
				t.Fatal(err)
			}
			ref, err := p.DirRef("/a/b/d")
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WithTx(func(tx *Tx) error { return tx.Remove(victim) }); err != nil {
				t.Fatal(err)
			}
			if err := p.MkdirAll("/a/b/d", 0o755); err != nil { // a new directory, same name
				t.Fatal(err)
			}
			before := countNodes(t, p)
			w, err := p.AddWatch("/", OpAll, Recursive())
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if p.ExistsAt(ref, "f") {
				t.Error("ExistsAt finds a file of a removed directory")
			}
			if _, err := p.ReadFileAt(ref, "f"); !errors.Is(err, ErrNotExist) {
				t.Errorf("ReadFileAt = %v, want ErrNotExist", err)
			}
			if _, err := p.OpenDirAt(ref, "."); !errors.Is(err, ErrNotExist) {
				t.Errorf("OpenDirAt = %v, want ErrNotExist", err)
			}
			if err := p.WriteFileAt(ref, "f", []byte("x"), 0o644); !errors.Is(err, ErrNotExist) {
				t.Errorf("WriteFileAt of an existing name = %v, want ErrNotExist", err)
			}
			if err := p.WriteFileAt(ref, "g", []byte("x"), 0o644); !errors.Is(err, ErrNotExist) {
				t.Errorf("WriteFileAt of a new name = %v, want ErrNotExist", err)
			}
			if err := p.RemoveAt(ref, "f"); !errors.Is(err, ErrNotExist) {
				t.Errorf("RemoveAt = %v, want ErrNotExist", err)
			}
			if after := countNodes(t, p); after != before {
				t.Errorf("the tree has %d nodes, had %d: a call through a dead reference made one", after, before)
			}
			fs.SyncWatches()
			if len(w.C) != 0 {
				t.Errorf("a call through a dead reference raised %v", <-w.C)
			}
		})
	}
}

// TestRefFollowsRename: after the directory or an ancestor is renamed the
// reference keeps working, and what it writes is announced under the path
// the directory has at the time of the call.
func TestRefFollowsRename(t *testing.T) {
	for _, mv := range [][2]string{{"/a/b/d", "/a/b/e"}, {"/a", "/z"}} {
		t.Run(mv[0]+" to "+mv[1], func(t *testing.T) {
			fs := New()
			p := fs.RootProc()
			if err := p.MkdirAll("/a/b/d", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := p.WriteString("/a/b/d/f", "v\n"); err != nil {
				t.Fatal(err)
			}
			ref, err := p.DirRef("/a/b/d")
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Rename(mv[0], mv[1]); err != nil {
				t.Fatal(err)
			}
			now := "/a/b/e"
			if mv[0] == "/a" {
				now = "/z/b/d"
			}
			w, err := p.AddWatch("/", OpAll, Recursive())
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := p.WriteFileAt(ref, "f", []byte("w\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := p.WriteFileAt(ref, "g", []byte("w\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := p.RemoveAt(ref, "g"); err != nil {
				t.Fatal(err)
			}
			fs.SyncWatches()
			var got []string
			for len(w.C) > 0 {
				ev := <-w.C
				got = append(got, ev.Op.String()+" "+ev.Path)
			}
			want := []string{
				"WRITE " + now + "/f", "WRITE " + now + "/f", "CLOSE_WRITE " + now + "/f",
				"CREATE " + now + "/g", "WRITE " + now + "/g", "CLOSE_WRITE " + now + "/g",
				"REMOVE " + now + "/g",
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("events\n  %v\nwant\n  %v", got, want)
			}
			if b, err := p.ReadFile(now + "/f"); err != nil || string(b) != "w\n" {
				t.Errorf("%s/f = %q, %v", now, b, err)
			}
		})
	}
}

// TestRefChecksSearchBitEveryCall: the ancestors were checked when the
// reference was taken; the referenced directory's own search bit is
// checked by every call, so clearing it afterwards shuts the door.
func TestRefChecksSearchBitEveryCall(t *testing.T) {
	fs := New()
	root := fs.RootProc()
	if err := root.MkdirAll("/a/d", 0o777); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteFile("/a/d/f", []byte("v\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	p := fs.Proc(Cred{UID: 7, GID: 7})
	ref, err := p.DirRef("/a/d")
	if err != nil {
		t.Fatal(err)
	}
	// An ancestor closing afterwards does not matter, as with openat(2).
	if err := root.Chmod("/a", 0o700); err != nil {
		t.Fatal(err)
	}
	if b, err := p.ReadFileAt(ref, "f"); err != nil || string(b) != "v\n" {
		t.Fatalf("read through the reference after an ancestor closed = %q, %v", b, err)
	}
	if err := root.Chmod("/a/d", 0o666); err != nil { // read and write, no search
		t.Fatal(err)
	}
	if p.ExistsAt(ref, "f") {
		t.Error("ExistsAt sees into a directory it may not search")
	}
	if _, err := p.ReadFileAt(ref, "f"); !errors.Is(err, ErrAccess) {
		t.Errorf("ReadFileAt = %v, want ErrAccess", err)
	}
	if err := p.WriteFileAt(ref, "f", []byte("x"), 0o644); !errors.Is(err, ErrAccess) {
		t.Errorf("WriteFileAt of an existing name = %v, want ErrAccess", err)
	}
	if err := p.WriteFileAt(ref, "g", []byte("x"), 0o644); !errors.Is(err, ErrAccess) {
		t.Errorf("WriteFileAt of a new name = %v, want ErrAccess", err)
	}
	if err := p.RemoveAt(ref, "f"); !errors.Is(err, ErrAccess) {
		t.Errorf("RemoveAt = %v, want ErrAccess", err)
	}
	if _, err := p.OpenDirAt(ref, "sub"); !errors.Is(err, ErrAccess) {
		t.Errorf("OpenDirAt of a child = %v, want ErrAccess", err)
	}
}

// TestRefInsideChroot: a confined Proc takes references inside its root
// and uses them like an unconfined one; the events carry real paths; a
// reference to a directory outside its root is ErrNotExist to it.
func TestRefInsideChroot(t *testing.T) {
	fs := New()
	root := fs.RootProc()
	if err := root.MkdirAll("/jail/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.MkdirAll("/outside", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteString("/outside/f", "o\n"); err != nil {
		t.Fatal(err)
	}
	jailed, err := root.Chroot("/jail")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := jailed.DirRef("/d")
	if err != nil {
		t.Fatal(err)
	}
	w, err := root.AddWatch("/", OpAll, Recursive())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := jailed.WriteFileAt(ref, "f", []byte("v\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !jailed.ExistsAt(ref, "f") {
		t.Error("ExistsAt misses the file just written")
	}
	if b, err := jailed.ReadFileAt(ref, "f"); err != nil || string(b) != "v\n" {
		t.Errorf("ReadFileAt = %q, %v", b, err)
	}
	if ents, err := drain(jailed.OpenDirAt(ref, ".")); err != nil || len(ents) != 1 || ents[0].Name != "f" {
		t.Errorf("OpenDirAt = %v, %v", ents, err)
	}
	if err := jailed.RemoveAt(ref, "f"); err != nil {
		t.Error(err)
	}
	fs.SyncWatches()
	var got []string
	for len(w.C) > 0 {
		ev := <-w.C
		got = append(got, ev.Op.String()+" "+ev.Path)
	}
	want := []string{"CREATE /jail/d/f", "WRITE /jail/d/f", "CLOSE_WRITE /jail/d/f", "REMOVE /jail/d/f"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events %v, want %v", got, want)
	}
	out, err := root.DirRef("/outside")
	if err != nil {
		t.Fatal(err)
	}
	if jailed.ExistsAt(out, "f") {
		t.Error("a confined Proc sees through a reference to a directory outside its root")
	}
	if _, err := jailed.ReadFileAt(out, "f"); !errors.Is(err, ErrNotExist) {
		t.Errorf("ReadFileAt outside the root = %v, want ErrNotExist", err)
	}
	if err := jailed.WriteFileAt(out, "g", []byte("x"), 0o644); !errors.Is(err, ErrNotExist) {
		t.Errorf("WriteFileAt outside the root = %v, want ErrNotExist", err)
	}
	if root.Exists("/outside/g") {
		t.Error("a confined Proc created a file outside its root")
	}
}

// TestStressWriteFileNeverReadsEmpty: a whole-file write replaces the
// content in one swap, so a reader beside a writer looping WriteFile sees
// one whole value or the other, never the empty file between a truncate
// and a write — whether it reads the whole file, reads through a handle,
// takes the content shared, or reads the directory under ReadTx.
func TestStressWriteFileNeverReadsEmpty(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	// Longer than the intern pool admits, so every write publishes new
	// bytes of its own.
	a := bytes.Repeat([]byte("a"), 100)
	b := bytes.Repeat([]byte("b"), 200)
	if err := p.WriteFile("/d/f", a, 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := p.DirRef("/d")
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			v := a
			if i&1 == 1 {
				v = b
			}
			var err error
			if i&2 == 0 {
				err = p.WriteFile("/d/f", v, 0o644)
			} else {
				err = p.WriteFileAt(ref, "f", v, 0o644)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	h, err := p.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	hbuf := make([]byte, 2*len(b))
	var tree TreeBuf
	readers := []struct {
		name string
		read func() ([]byte, error)
	}{
		{"ReadFile", func() ([]byte, error) { return p.ReadFile("/d/f") }},
		{"File.Read", func() ([]byte, error) {
			if _, err := h.Seek(0, 0); err != nil {
				return nil, err
			}
			n, err := h.Read(hbuf)
			return hbuf[:n], err
		}},
		{"ReadFileShared", func() ([]byte, error) { return p.ReadFileShared("/d/f") }},
		{"Tx.ReadTree", func() ([]byte, error) {
			var got []byte
			err := fs.ReadTx(func(tx *Tx) error {
				_, err := tx.ReadTree("/d", "f", nil, &tree)
				if len(tree.Files) > 0 {
					got = []byte(tree.Files[0].Data)
				}
				return err
			})
			return got, err
		}},
	}
	var rg sync.WaitGroup
	for _, r := range readers {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; i < 5000; i++ {
				got, err := r.read()
				if err != nil {
					t.Errorf("%s: %v", r.name, err)
					return
				}
				if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
					t.Errorf("%s %d saw %d bytes %.8q: neither whole value", r.name, i, len(got), got)
					return
				}
			}
		}()
	}
	rg.Wait()
	stop.Store(true)
	wg.Wait()
}

// TestReadFileSharedNeverChanges: what a shared read returns is the file's
// content at the read, for good. A later rewrite publishes new bytes and
// leaves the returned ones alone, by path and by reference, for a payload
// too long to intern and one the pool holds.
func TestReadFileSharedNeverChanges(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	ref, err := p.DirRef("/d")
	if err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		name string
		read func() ([]byte, error)
	}{
		{"ReadFileShared", func() ([]byte, error) { return p.ReadFileShared("/d/f") }},
		{"ReadFileSharedAt", func() ([]byte, error) { return p.ReadFileSharedAt(ref, "f") }},
	}
	for _, size := range []int{100, 3} {
		a, b := bytes.Repeat([]byte("a"), size), bytes.Repeat([]byte("b"), size)
		for _, r := range reads {
			if err := p.WriteFile("/d/f", a, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := r.read()
			if err != nil {
				t.Fatal(err)
			}
			if err := p.WriteFile("/d/f", b, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := p.OpenFile("/d/f", O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("c")); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if !bytes.Equal(got, a) {
				t.Errorf("%s of %d bytes read back as %.8q… after later writes, want %.8q…", r.name, size, got, a)
			}
		}
	}
}

// TestStressConcurrentCreateOneName: two WriteFileAt racing to create the
// same name make one file, announced by one Create; the loser finds it
// and rewrites it.
func TestStressConcurrentCreateOneName(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	ref, err := p.DirRef("/d")
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.AddWatch("/d", OpAll, BufferSize(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const rounds = 300
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("f%03d", i)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if err := p.WriteFileAt(ref, name, []byte{byte('0' + g), '\n'}, 0o644); err != nil {
					t.Error(err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
	fs.SyncWatches()
	creates := map[string]int{}
	total := 0
	for len(w.C) > 0 {
		ev := <-w.C
		total++
		if ev.Op == OpCreate {
			creates[ev.Path]++
		}
	}
	if len(creates) != rounds {
		t.Fatalf("%d names announced a Create, want %d", len(creates), rounds)
	}
	for path, n := range creates {
		if n != 1 {
			t.Errorf("%s was announced created %d times", path, n)
		}
	}
	// Create+Write+CloseWrite from the winner, Write+Write+CloseWrite from
	// the loser.
	if total != 6*rounds {
		t.Errorf("%d events for %d doubly written files, want %d", total, rounds, 6*rounds)
	}
	if dir, err := p.OpenDirAt(ref, "."); err != nil || dir.Len() != rounds {
		t.Errorf("the directory lists %d entries, %v; want %d", dir.Len(), err, rounds)
	}
}

// TestAllocWholeFileWrite pins the handle-free write: with a recursive
// watch installed and kept drained, rewriting an existing file costs the
// path string its events carry and little else, by path or by reference.
func TestAllocWholeFileWrite(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.MkdirAll("/switches/sw1/flows/f", 0o755); err != nil {
		t.Fatal(err)
	}
	const path = "/switches/sw1/flows/f/priority"
	if err := p.WriteString(path, "1\n"); err != nil {
		t.Fatal(err)
	}
	ref, err := p.DirRef("/switches/sw1/flows/f")
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.AddWatch("/", OpAll, Recursive())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	drain := func() {
		fs.SyncWatches()
		for len(w.C) > 0 {
			<-w.C
		}
	}
	vals := [2]string{"1\n", "2\n"}
	i := 0
	byPath := testing.AllocsPerRun(200, func() {
		i++
		if err := p.WriteString(path, vals[i&1]); err != nil {
			t.Fatal(err)
		}
		drain()
	})
	if byPath > 3 {
		t.Errorf("WriteString on an existing file allocates %.0f objects, want <= 3", byPath)
	}
	data := [2][]byte{[]byte("1\n"), []byte("2\n")}
	byRef := testing.AllocsPerRun(200, func() {
		i++
		if err := p.WriteFileAt(ref, "priority", data[i&1], 0o644); err != nil {
			t.Fatal(err)
		}
		drain()
	})
	if byRef > 3 {
		t.Errorf("WriteFileAt on an existing file allocates %.0f objects, want <= 3", byRef)
	}
	if n := testing.AllocsPerRun(200, func() {
		if !p.ExistsAt(ref, "priority") || p.ExistsAt(ref, "nope") {
			t.Fatal("ExistsAt is wrong")
		}
	}); n != 0 {
		t.Errorf("ExistsAt allocates %.0f objects, want 0", n)
	}
}
