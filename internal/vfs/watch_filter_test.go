package vfs

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestWatchFiles: a filtered watch gets a file's events only when the
// file's name is listed (for a rename, either name; the Create a rename
// raises at the new path is an event on the new name alone), and every
// directory event whatever its name.
func TestWatchFiles(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.MkdirAll("/d/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := p.AddWatch("/d", OpAll, Recursive(), Files("version"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	steps := []func() error{
		func() error { return p.WriteString("/d/sub/version", "1") },
		func() error { return p.WriteString("/d/sub/priority", "1") },
		func() error { return p.Rename("/d/sub/priority", "/d/sub/version2") },
		func() error { return p.Rename("/d/sub/version", "/d/sub/old") },
		func() error { return p.Rename("/d/sub/version2", "/d/version") },
		func() error { return p.Mkdir("/d/other", 0o755) },
		func() error { return p.Rename("/d/other", "/d/other2") },
		func() error {
			return fs.WithTx(func(tx *Tx) error {
				return tx.WriteTree("/d/tree", []FileData{
					{Name: "version", Data: []byte("1")},
					{Name: "priority", Data: []byte("1")},
					{Name: "inner", Children: []FileData{{Name: "version"}}},
				}, 0o755, 0o644, 0, 0)
			})
		},
		func() error { return fs.WithTx(func(tx *Tx) error { return tx.Remove("/d/tree") }) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	fs.SyncWatches()
	var got []Event
	for len(w.C) > 0 {
		got = append(got, <-w.C)
	}
	want := []Event{
		{Op: OpCreate, Path: "/d/sub/version"},
		{Op: OpWrite, Path: "/d/sub/version"},
		{Op: OpCloseWrite, Path: "/d/sub/version"},
		{Op: OpRename, Path: "/d/sub/version", NewPath: "/d/sub/old"},
		{Op: OpRename, Path: "/d/sub/version2", NewPath: "/d/version"},
		{Op: OpCreate, Path: "/d/version"},
		{Op: OpCreate, Path: "/d/other", IsDir: true},
		{Op: OpRename, Path: "/d/other", NewPath: "/d/other2", IsDir: true},
		{Op: OpCreate, Path: "/d/other2", IsDir: true},
		{Op: OpCreate, Path: "/d/tree", IsDir: true},
		{Op: OpCreate, Path: "/d/tree/version"},
		{Op: OpWrite, Path: "/d/tree/version"},
		{Op: OpCreate, Path: "/d/tree/inner", IsDir: true},
		{Op: OpCreate, Path: "/d/tree/inner/version"},
		{Op: OpWrite, Path: "/d/tree/inner/version"},
		{Op: OpRemove, Path: "/d/tree/inner/version"},
		{Op: OpRemove, Path: "/d/tree/inner", IsDir: true},
		{Op: OpRemove, Path: "/d/tree/version"},
		{Op: OpRemove, Path: "/d/tree", IsDir: true},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("filtered watch got\n%v\nwant\n%v", got, want)
	}
	if info := w.Info(); !slices.Equal(info.Files, []string{"version"}) {
		t.Fatalf("Info().Files = %q", info.Files)
	}
}

// TestWatchFilesInvalid: a filter must name at least one file, each a
// single path element.
func TestWatchFilesInvalid(t *testing.T) {
	p := New().RootProc()
	for _, names := range [][]string{nil, {}, {""}, {"a/b"}, {"version", ".."}} {
		if w, err := p.AddWatch("/", OpAll, Files(names...)); !errors.Is(err, ErrInvalid) {
			if w != nil {
				w.Close()
			}
			t.Errorf("Files(%q): err = %v, want ErrInvalid", names, err)
		}
	}
	w, err := p.AddWatch("/", OpAll)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if files := w.Info().Files; files != nil {
		t.Fatalf("an unfiltered watch reports files %q", files)
	}
}

// interestNames are the path elements the watch-interest fuzz builds
// paths and filters from: two that only ever name directories in trees
// it writes, and two that name files.
var interestNames = [...]string{"a", "b", "x", "version"}

// interestPaths is "/" and every path of one to three interestNames.
var interestPaths = func() []string {
	paths := []string{"/"}
	prev := []string{""}
	for depth := 0; depth < 3; depth++ {
		var next []string
		for _, dir := range prev {
			for _, n := range interestNames {
				next = append(next, dir+"/"+n)
			}
		}
		paths = append(paths, next...)
		prev = next
	}
	return paths
}()

// interestScript decodes the fuzz input: each read past the end is 0.
type interestScript struct{ b []byte }

func (s *interestScript) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *interestScript) path() string { return interestPaths[int(s.next())%len(interestPaths)] }

// names decodes a non-empty subset of interestNames.
func (s *interestScript) names() []string {
	bits := s.next()
	var out []string
	for i, n := range interestNames {
		if bits&(1<<i) != 0 {
			out = append(out, n)
		}
	}
	if out == nil {
		out = []string{"x"}
	}
	return out
}

// interestSet is the file set the fuzz attaches: two regular files and
// a synthetic one, which raises a Create and no Write.
func interestSet(tx *Tx) *FileSet {
	set, err := tx.NewFileSet([]FileData{
		{Name: "x", Data: []byte("1")},
		{Name: "version", Data: []byte("2")},
		{Name: "b", Synth: &Synthetic{Read: func() ([]byte, error) { return nil, nil }}},
	}, 0o644, 0, 0)
	if err != nil {
		panic(err)
	}
	return set
}

// interestWatch is one decoded watch: what it was asked for, and what
// it received.
type interestWatch struct {
	path      string
	mask      EventOp
	recursive bool
	files     []string
	got       []Event
}

// takes is the model of what the watch is sent: its mask, its path (the
// watched object, its children, or with recursive its whole subtree),
// and for a file event its filter.
func (m *interestWatch) takes(ev Event) bool {
	mask := m.mask
	if mask == 0 {
		mask = OpAll
	}
	sees := func(p string) bool {
		return p == m.path || Dir(p) == m.path ||
			m.recursive && (m.path == "/" || strings.HasPrefix(p, m.path+"/"))
	}
	switch {
	case ev.Op&mask == 0 || !sees(ev.Path) && !(ev.Op == OpRename && sees(ev.NewPath)):
		return false
	case m.files == nil || ev.IsDir:
		return true
	}
	return slices.Contains(m.files, Base(ev.Path)) || ev.Op == OpRename && slices.Contains(m.files, Base(ev.NewPath))
}

// runInterestScript runs a decoded script on a fresh file system and
// returns its watches with what each received. With everything set, an
// unfiltered OpAll watch on / is added first, and what it received is
// returned too: every event is then taken by someone, so nothing is
// pruned.
func runInterestScript(tb testing.TB, data []byte, everything bool) (watches []*interestWatch, all []Event) {
	fs := New()
	p := fs.RootProc()
	var allW *Watch
	if everything {
		w, err := p.AddWatch("/", OpAll, Recursive(), BufferSize(1<<13))
		if err != nil {
			tb.Fatal(err)
		}
		defer w.Close()
		allW = w
	}
	s := &interestScript{b: data}
	live := make([]*Watch, 1+int(s.next())%4)
	for i := range live {
		m := &interestWatch{path: s.path(), mask: EventOp(s.next()) & OpAll}
		flags := s.next()
		opts := []WatchOption{BufferSize(1 << 13)}
		if flags&1 != 0 {
			m.recursive = true
			opts = append(opts, Recursive())
		}
		if flags&2 != 0 {
			m.files = s.names()
			opts = append(opts, Files(m.files...))
		}
		w, err := p.AddWatch(m.path, m.mask, opts...)
		if err != nil {
			tb.Fatal(err)
		}
		defer w.Close()
		live[i] = w
		watches = append(watches, m)
	}
	for op := 0; op < 32 && len(s.b) > 0; op++ {
		switch s.next() % 7 {
		case 0:
			_ = p.Mkdir(s.path(), 0o755)
		case 1:
			path, data := s.path(), []byte{s.next()}
			_ = p.WriteFile(path, data, 0o644)
		case 2:
			dir, shape := s.path(), s.next()
			_ = fs.WithTx(func(tx *Tx) error {
				files := []FileData{
					{Name: "x", Data: []byte("1")},
					{Name: "version", Data: []byte("2")},
					{Name: "a", Children: []FileData{
						{Name: "x", Data: []byte("3")},
						{Name: "b", Children: []FileData{{Name: "version"}}},
					}},
					{Name: "b", Set: interestSet(tx)},
				}
				var pick []FileData
				for i := range files {
					if shape&(1<<i) != 0 {
						pick = append(pick, files[i])
					}
				}
				_ = tx.WriteTree(dir, pick, 0o755, 0o644, 0, 0)
				return nil
			})
		case 3:
			a, b, name := s.path(), s.path(), interestNames[int(s.next())%len(interestNames)]
			_ = fs.WithTx(func(tx *Tx) error {
				var parents []DirRef
				for _, path := range []string{a, b} {
					if r, err := tx.DirRef(path); err == nil {
						parents = append(parents, r)
					}
				}
				return tx.AttachFileSet(interestSet(tx), parents, name, 0o755, 0, 0, nil)
			})
		case 4:
			path := s.path()
			_ = fs.WithTx(func(tx *Tx) error {
				_ = tx.Remove(path)
				return nil
			})
		case 5:
			dir, names := s.path(), s.names()
			_ = fs.WithTx(func(tx *Tx) error {
				_, _ = tx.RemoveChildren(dir, names)
				return nil
			})
		case 6:
			_ = p.Rename(s.path(), s.path())
		}
	}
	fs.SyncWatches()
	for i, w := range live {
		for len(w.C) > 0 {
			watches[i].got = append(watches[i].got, <-w.C)
		}
	}
	for allW != nil && len(allW.C) > 0 {
		all = append(all, <-allW.C)
	}
	return watches, all
}

// FuzzWatchInterest is the oracle for event pruning: a script of
// mutations — Mkdir, WriteFile, WriteTree with a nested directory and a
// file set, AttachFileSet, a subtree Remove, RemoveChildren, Rename — run
// under a decoded set of watches (path, mask, recursive, Files) must give
// each watch exactly the events it gets when an OpAll watch on / is also
// live, which makes every event wanted and so turns pruning off. That
// stream must in turn be what the OpAll watch got, cut down by a model
// of the watch's subscription.
func FuzzWatchInterest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pruned, _ := runInterestScript(t, data, false)
		full, all := runInterestScript(t, data, true)
		if slices.ContainsFunc(all, func(ev Event) bool { return ev.Op == OpOverflow }) {
			t.Skip("the unpruned run overflowed its watch")
		}
		for i, m := range full {
			if !slices.Equal(pruned[i].got, m.got) {
				t.Fatalf("watch %d got\n%v\nwith pruning, and\n%v\nwithout", i, pruned[i].got, m.got)
			}
			var want []Event
			for _, ev := range all {
				if m.takes(ev) {
					want = append(want, ev)
				}
			}
			if !slices.Equal(m.got, want) {
				t.Fatalf("watch %d (%s %v recursive=%v files=%q) got\n%v\nwant\n%v", i, m.path, m.mask, m.recursive, m.files, m.got, want)
			}
		}
	})
}
