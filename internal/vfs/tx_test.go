package vfs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTxAPI exercises the transactional (hook-level) surface directly.
func TestTxAPI(t *testing.T) {
	fs := New()
	err := fs.WithTx(func(tx *Tx) error {
		if err := tx.MkdirAll("/a/b/c", 0o755, 0, 0); err != nil {
			return err
		}
		if !tx.Exists("/a/b/c") || !tx.IsDir("/a/b") {
			t.Error("Exists/IsDir inside tx")
		}
		if tx.Exists("/nope") || tx.IsDir("/a/b/c/nope") {
			t.Error("phantom existence")
		}
		if err := tx.WriteFile("/a/b/c/f", []byte("x"), 0o644, 0, 0); err != nil {
			return err
		}
		// Overwrite path.
		if err := tx.WriteFile("/a/b/c/f", []byte("yz"), 0o644, 0, 0); err != nil {
			return err
		}
		b, err := tx.ReadFile("/a/b/c/f")
		if err != nil || string(b) != "yz" {
			t.Errorf("tx read = %q %v", b, err)
		}
		if _, err := tx.ReadFile("/a/b"); !errors.Is(err, ErrIsDir) {
			t.Errorf("tx read dir = %v", err)
		}
		entries, err := drain(tx.OpenDir("/a/b/c"))
		if err != nil || len(entries) != 1 {
			t.Errorf("tx readdir = %v %v", entries, err)
		}
		if _, err := tx.OpenDir("/a/b/c/f"); !errors.Is(err, ErrNotDir) {
			t.Errorf("tx readdir file = %v", err)
		}
		if err := tx.Remove("/a/b/c"); err != nil { // recursive in Tx
			return err
		}
		if tx.Exists("/a/b/c") {
			t.Error("tx remove did not remove")
		}
		if err := tx.Remove("/a/b/c"); !errors.Is(err, ErrNotExist) {
			t.Errorf("tx remove missing = %v", err)
		}
		if err := tx.Remove("/"); !errors.Is(err, ErrBusy) {
			t.Errorf("tx remove of the root = %v", err)
		}
		if c := tx.Creator(); c.UID != 0 || c.GID != 0 {
			t.Errorf("tx creator = %+v", c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// ReadTx sees the committed state.
	if err := fs.ReadTx(func(tx *Tx) error {
		if !tx.IsDir("/a/b") {
			t.Error("readtx missing dir")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSetClockAffectsTimestamps(t *testing.T) {
	fs := New()
	base := time.Unix(1_700_000_000, 0)
	fs.SetClock(func() time.Time { return base })
	p := fs.RootProc()
	if err := p.WriteString("/f", "x"); err != nil {
		t.Fatal(err)
	}
	st, _ := p.Stat("/f")
	if !st.Mtime.Equal(base) {
		t.Errorf("mtime = %v want %v", st.Mtime, base)
	}
}

func TestFileHandleStatNameWriteString(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	f, err := p.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "/f" {
		t.Errorf("name = %q", f.Name())
	}
	if _, err := f.WriteString("hello"); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil || st.Size != 5 {
		t.Errorf("handle stat = %+v %v", st, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(); !errors.Is(err, ErrClosed) {
		t.Errorf("stat closed = %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close = %v", err)
	}
	// Name records the real path even when opened via a namespace.
	if err := p.MkdirAll("/jail/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	jail, err := p.Chroot("/jail")
	if err != nil {
		t.Fatal(err)
	}
	jf, err := jail.Create("/sub/x", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if jf.Name() != "/jail/sub/x" {
		t.Errorf("jail file name = %q", jf.Name())
	}
	jf.Close()
}

func TestPathAndLinkErrorStrings(t *testing.T) {
	pe := &PathError{Op: "open", Path: "/x", Err: ErrNotExist}
	if pe.Error() == "" || !errors.Is(pe, ErrNotExist) {
		t.Error("PathError surface")
	}
	le := &LinkError{Op: "rename", Old: "/a", New: "/b", Err: ErrExist}
	if le.Error() == "" || !errors.Is(le, ErrExist) {
		t.Error("LinkError surface")
	}
}

func TestAppendFileCreatesWhenMissing(t *testing.T) {
	p := New().RootProc()
	if err := p.AppendFile("/log", []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendFile("/log", []byte("b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, _ := p.ReadFile("/log")
	if string(b) != "a\nb\n" {
		t.Errorf("appended = %q", b)
	}
	// Append into an unwritable location fails.
	if err := p.Mkdir("/ro", 0o555); err != nil {
		t.Fatal(err)
	}
	alice := p.WithCred(Cred{UID: 9})
	if err := alice.AppendFile("/ro/f", []byte("x"), 0o644); !errors.Is(err, ErrAccess) {
		t.Errorf("append denied = %v", err)
	}
}

// TestStressTxTortureVersionCommit is the transaction torture test for
// the version-file commit protocol yancfs uses (PutFlowTx): concurrent
// transactions rewrite a flow directory's match.* files and bump its
// version file, while concurrent readers assert they only ever observe
// all-or-nothing states. A transaction also stages a scratch match file
// and removes it before returning — no reader may ever see it, which
// pins the "uncommitted match.* files are never visible" guarantee.
func TestStressTxTortureVersionCommit(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	const flow = "/flows/f1"
	err := fs.WithTx(func(tx *Tx) error {
		if err := tx.MkdirAll(flow, 0o755, 0, 0); err != nil {
			return err
		}
		if err := tx.WriteFile(flow+"/match.nw_dst", []byte("gen0"), 0o644, 0, 0); err != nil {
			return err
		}
		if err := tx.WriteFile(flow+"/actions", []byte("gen0"), 0o644, 0, 0); err != nil {
			return err
		}
		return tx.WriteFile(flow+"/version", []byte("0"), 0o644, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}

	const committers = 4
	const commitsEach = 150
	var gen atomic.Uint64
	stop := make(chan struct{})
	var readerErr atomic.Value

	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Atomic snapshot: all files must carry the same generation
				// tag as the version file, and the staging file must be
				// invisible.
				var version, match, actions string
				var stagingSeen bool
				_ = fs.ReadTx(func(tx *Tx) error {
					v, err := tx.ReadFile(flow + "/version")
					if err != nil {
						return err
					}
					m, err := tx.ReadFile(flow + "/match.nw_dst")
					if err != nil {
						return err
					}
					a, err := tx.ReadFile(flow + "/actions")
					if err != nil {
						return err
					}
					version, match, actions = string(v), string(m), string(a)
					stagingSeen = tx.Exists(flow + "/match.staging")
					return nil
				})
				if stagingSeen {
					readerErr.Store(fmt.Errorf("uncommitted match.staging visible to reader"))
					return
				}
				want := "gen" + version
				if match != want || actions != want {
					readerErr.Store(fmt.Errorf("torn commit: version=%s match=%s actions=%s",
						version, match, actions))
					return
				}
				// The Proc seqlock read (yancfs.ReadFlow style) must agree:
				// version stable across the field reads implies consistency.
				v1, err1 := p.ReadString(flow + "/version")
				m2, _ := p.ReadString(flow + "/match.nw_dst")
				v2, err2 := p.ReadString(flow + "/version")
				if err1 == nil && err2 == nil && v1 == v2 && m2 != "gen"+v1 {
					readerErr.Store(fmt.Errorf("seqlock read torn: version=%s match=%s", v1, m2))
					return
				}
			}
		}()
	}

	var cwg sync.WaitGroup
	for c := 0; c < committers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for i := 0; i < commitsEach; i++ {
				g := gen.Add(1)
				tag := []byte(fmt.Sprintf("gen%d", g))
				err := fs.WithTx(func(tx *Tx) error {
					// Stage, then commit fields + version, then unstage:
					// everything inside one transaction, so readers see
					// none of the intermediate states.
					if err := tx.WriteFile(flow+"/match.staging", tag, 0o644, 0, 0); err != nil {
						return err
					}
					if err := tx.WriteFile(flow+"/match.nw_dst", tag, 0o644, 0, 0); err != nil {
						return err
					}
					if err := tx.WriteFile(flow+"/actions", tag, 0o644, 0, 0); err != nil {
						return err
					}
					if err := tx.WriteFile(flow+"/version", []byte(fmt.Sprintf("%d", g)), 0o644, 0, 0); err != nil {
						return err
					}
					return tx.Remove(flow + "/match.staging")
				})
				if err != nil {
					t.Errorf("commit %d: %v", g, err)
					return
				}
			}
		}()
	}
	cwg.Wait()
	close(stop)
	rwg.Wait()
	if e := readerErr.Load(); e != nil {
		t.Fatal(e)
	}

	// Final state: the last generation fully committed.
	v, err := p.ReadString(flow + "/version")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := p.ReadString(flow + "/match.nw_dst")
	if m != "gen"+v {
		t.Fatalf("final state torn: version=%s match=%s", v, m)
	}
	if p.Exists(flow + "/match.staging") {
		t.Fatal("staging file leaked out of transactions")
	}
}

// readTree runs one ReadTree under a read transaction.
func readTree(t *testing.T, fs *FS, dir, first string, unless []byte, buf *TreeBuf) (name string, err error) {
	t.Helper()
	if rerr := fs.ReadTx(func(tx *Tx) error {
		name, err = tx.ReadTree(dir, first, unless, buf)
		return nil
	}); rerr != nil {
		t.Fatal(rerr)
	}
	return name, err
}

// TestReadTree pins the contract of WriteTree's mirror: the gate file
// first and the rest in ReadDir order, regular files only, nothing walked
// when the gate is missing, empty or unchanged, and the counts it adds to
// OpStats.
func TestReadTree(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	synth := &Synthetic{Read: func() ([]byte, error) { return []byte("live"), nil }}
	err := fs.WithTx(func(tx *Tx) error {
		if err := tx.MkdirAll("/sw/flows", 0o755, 0, 0); err != nil {
			return err
		}
		return tx.WriteTree("/sw/flows/f", []FileData{
			{Name: "priority", Data: []byte("7\n")},
			{Name: "action.out", Data: []byte("2\n")},
			{Name: "counters", Children: []FileData{{Name: "packets", Synth: synth}}},
			{Name: "live", Synth: synth},
			{Name: "match.tp_dst", Data: []byte("80\n")},
			{Name: "version", Data: []byte("3\n")},
		}, 0o755, 0o644, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Symlink("/sw", "/sw/flows/link"); err != nil {
		t.Fatal(err)
	}
	if err := p.Symlink("/sw/flows/f/priority", "/sw/flows/f/alias"); err != nil {
		t.Fatal(err)
	}
	var buf TreeBuf
	before := fs.Stats()
	name, err := readTree(t, fs, "/sw/flows/f", "version", nil, &buf)
	if err != nil || name != "f" {
		t.Fatalf("ReadTree = %q %v", name, err)
	}
	var got []string
	for _, f := range buf.Files {
		got = append(got, f.Name+"="+f.Data)
	}
	want := []string{"version=3\n", "action.out=2\n", "match.tp_dst=80\n", "priority=7\n"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("files = %q, want %q", got, want)
	}
	if d := fs.Stats().Sub(before); d.Reads != 4 || d.ReadDirs != 1 || d.Total() != 5 {
		t.Errorf("a 4-file tree counted as %+v, want 4 reads and 1 readdir", d)
	}

	// Unchanged gate: nothing but the gate is touched.
	before = fs.Stats()
	if _, err := readTree(t, fs, "/sw/flows/f", "version", []byte("3\n"), &buf); err != nil || len(buf.Files) != 0 {
		t.Fatalf("unchanged gate: %d files, %v", len(buf.Files), err)
	}
	if d := fs.Stats().Sub(before); d.Total() != 1 || d.Reads != 1 {
		t.Errorf("an unchanged gate counted as %+v, want 1 read", d)
	}
	// A different expectation walks.
	if _, err := readTree(t, fs, "/sw/flows/f", "version", []byte("2\n"), &buf); err != nil || len(buf.Files) != 4 {
		t.Fatalf("stale expectation: %d files, %v", len(buf.Files), err)
	}
	// Empty gate (the truncate half of a file-I/O rewrite) and missing gate.
	if err := p.WriteFile("/sw/flows/f/version", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTree(t, fs, "/sw/flows/f", "version", nil, &buf); err != nil || len(buf.Files) != 0 {
		t.Fatalf("empty gate: %d files, %v", len(buf.Files), err)
	}
	if _, err := readTree(t, fs, "/sw/flows/f", "nope", nil, &buf); err != nil || len(buf.Files) != 0 {
		t.Fatalf("missing gate: %d files, %v", len(buf.Files), err)
	}
	// A synthetic or directory gate is no gate.
	for _, gate := range []string{"live", "counters"} {
		if _, err := readTree(t, fs, "/sw/flows/f", gate, nil, &buf); err != nil || len(buf.Files) != 0 {
			t.Fatalf("gate %s: %d files, %v", gate, len(buf.Files), err)
		}
	}
	// Errors: missing directory, not a directory. A symlink to a
	// directory is followed and reports the directory's own name.
	if _, err := readTree(t, fs, "/sw/flows/gone", "version", nil, &buf); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing dir: %v", err)
	}
	if _, err := readTree(t, fs, "/sw/flows/f/priority", "version", nil, &buf); !errors.Is(err, ErrNotDir) {
		t.Fatalf("file as dir: %v", err)
	}
	if name, err := readTree(t, fs, "/sw/flows/link", "x", nil, &buf); err != nil || name != "sw" {
		t.Fatalf("through a symlink: %q %v", name, err)
	}
}

// TestReadTreeBigDirSorted: a directory too big for one trie leaf is
// still returned in name order, and nothing of it stays referenced by the
// buffer's scratch.
func TestReadTreeBigDirSorted(t *testing.T) {
	fs := New()
	files := []FileData{{Name: "version", Data: []byte("1\n")}}
	for i := 0; i < 3*dirLeafMax; i++ {
		files = append(files, FileData{Name: fmt.Sprintf("k%03d", (i*37)%(3*dirLeafMax)), Data: []byte{byte(i)}})
	}
	if err := fs.WithTx(func(tx *Tx) error { return tx.WriteTree("/d", files, 0o755, 0o644, 0, 0) }); err != nil {
		t.Fatal(err)
	}
	var buf TreeBuf
	if _, err := readTree(t, fs, "/d", "version", nil, &buf); err != nil {
		t.Fatal(err)
	}
	if len(buf.Files) != len(files) || buf.Files[0].Name != "version" {
		t.Fatalf("%d files, first %q", len(buf.Files), buf.Files[0].Name)
	}
	for i := 2; i < len(buf.Files); i++ {
		if buf.Files[i-1].Name >= buf.Files[i].Name {
			t.Fatalf("files out of name order at %d: %q then %q", i, buf.Files[i-1].Name, buf.Files[i].Name)
		}
	}
	for _, e := range buf.ents[:cap(buf.ents)] {
		if e.c != nil {
			t.Fatal("ReadTree left an inode referenced by its scratch")
		}
	}
}

// TestReadTreeAllocs: a gate that has not moved costs nothing, a tree
// that passed it costs the one string its files are copied into.
func TestReadTreeAllocs(t *testing.T) {
	fs := New()
	err := fs.WithTx(func(tx *Tx) error {
		return tx.WriteTree("/f", []FileData{
			{Name: "a", Data: []byte("1\n")}, {Name: "b", Data: []byte("2\n")}, {Name: "version", Data: []byte("9\n")},
		}, 0o755, 0o644, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf TreeBuf
	unless := []byte("9\n")
	read := func(unless []byte) func(tx *Tx) error {
		return func(tx *Tx) error { _, err := tx.ReadTree("/f", "version", unless, &buf); return err }
	}
	same, moved := read(unless), read(nil)
	if n := testing.AllocsPerRun(100, func() { _ = fs.ReadTx(same) }); n != 0 {
		t.Errorf("unchanged gate: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = fs.ReadTx(moved) }); n > 1 {
		t.Errorf("changed tree: %v allocs, want 1", n)
	}
}
