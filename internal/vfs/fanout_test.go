package vfs

import (
	"errors"
	"slices"
	"testing"
)

// TestWriteTree checks the batched directory-population primitive: one call
// creates the directory and all its files, watchers of the parent see the
// directory appear, and recreating an existing path fails.
func TestWriteTree(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/trees", 0o755); err != nil {
		t.Fatal(err)
	}
	files := []FileData{
		{Name: "data", Data: []byte("payload")},
		{Name: "in_port", Data: []byte("3\n")},
	}
	err := fs.WithTx(func(tx *Tx) error {
		return tx.WriteTree("/trees/m1", files, 0o755, 0o444, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		got, err := p.ReadFile("/trees/m1/" + f.Name)
		if err != nil || string(got) != string(f.Data) {
			t.Fatalf("%s: %q, %v", f.Name, got, err)
		}
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.WriteTree("/trees/m1", files, 0o755, 0o444, 0, 0)
	}); !errors.Is(err, ErrExist) {
		t.Fatalf("recreating existing tree: got %v, want ErrExist", err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.WriteTree("/trees/bad", []FileData{{Name: "a/b"}}, 0o755, 0o444, 0, 0)
	}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("slash in file name: got %v, want ErrInvalid", err)
	}
}

// TestRemoveChildrenAndDirNames checks the batched eviction path used by
// drop-oldest: RemoveChildren skips missing names and reports the count,
// and DirNames reflects the surviving membership.
func TestRemoveChildrenAndDirNames(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/buf", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"m1", "m2", "m3", "m4"} {
		if err := p.Mkdir("/buf/"+n, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteString("/buf/"+n+"/data", "x"); err != nil {
			t.Fatal(err)
		}
	}
	var removed int
	err := fs.WithTx(func(tx *Tx) error {
		var err error
		removed, err = tx.RemoveChildren("/buf", []string{"m1", "m3", "missing"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	var names []string
	if err := fs.ReadTx(func(tx *Tx) error {
		var err error
		names, err = tx.DirNames("/buf", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	if !slices.Equal(names, []string{"m2", "m4"}) {
		t.Fatalf("surviving children = %v", names)
	}
	if err := fs.ReadTx(func(tx *Tx) error {
		_, err := tx.DirNames("/buf/m2/data", nil)
		return err
	}); !errors.Is(err, ErrNotDir) {
		t.Fatalf("DirNames on a file: got %v, want ErrNotDir", err)
	}
}

// TestAttachFileSet checks the build-once, attach-N primitive both ways
// it is attached. Through refs: refs resolved once keep working across
// attaches, a ref whose directory was removed or already holds the name
// is skipped without aborting the rest, and the files are shared — one
// inode, whose nlink counts every directory holding it, down as well as
// up. Through WriteTree: a Set entry is a directory holding the set, and
// a watch that can see inside it hears each file's Create. A set holds
// files only, and a chmod made through one name shows under every name.
func TestAttachFileSet(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	err := fs.WithTx(func(tx *Tx) error {
		for _, d := range []string{"/b1", "/b2", "/b3", "/b4/m", "/trees"} {
			if err := tx.MkdirAll(d, 0o755, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]DirRef, 4)
	for i, d := range []string{"/b1", "/b2", "/b3", "/b4"} {
		if refs[i], err = p.DirRef(d); err != nil {
			t.Fatal(err)
		}
	}
	if (DirRef{}).Valid() {
		t.Fatal("zero DirRef reports valid")
	}
	// Unsubscribe /b2 after the refs were cached — its ref must go stale.
	if err := p.Remove("/b2"); err != nil {
		t.Fatal(err)
	}
	var set *FileSet
	var got []int
	err = fs.WithTx(func(tx *Tx) error {
		var err error
		if set, err = tx.NewFileSet([]FileData{{Name: "data", Data: []byte("d")}}, 0o444, 0, 0); err != nil {
			return err
		}
		return tx.AttachFileSet(set, refs, "m", 0o755, 0, 0, func(i int) {
			got = append(got, i)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("linked callbacks = %v, want [0 2]", got)
	}
	if p.Exists("/b4/m/data") {
		t.Fatal("a destination already holding the name was linked into")
	}
	st1, err := p.Stat("/b1/m/data")
	if err != nil {
		t.Fatal(err)
	}
	st3, err := p.Stat("/b3/m/data")
	if err != nil {
		t.Fatal(err)
	}
	if st1.Ino != st3.Ino {
		t.Fatalf("attach copied instead of linked: ino %d vs %d", st1.Ino, st3.Ino)
	}
	if st1.Nlink != 2 || st1.Mode != 0o444 { // b1 + b3
		t.Fatalf("nlink = %d, mode %o; want 2, 444", st1.Nlink, st1.Mode)
	}
	// The same set attached once more through WriteTree, in sight of a
	// recursive watch: the directory and its file announce themselves.
	w, err := p.AddWatch("/trees", OpCreate, Recursive())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.WriteTree("/trees/t", []FileData{{Name: "m", Set: set}}, 0o755, 0o644, 0, 0)
	}); err != nil {
		t.Fatal(err)
	}
	var seen []string
	for len(seen) < 3 {
		seen = append(seen, (<-w.C).Path)
	}
	if want := []string{"/trees/t", "/trees/t/m", "/trees/t/m/data"}; !slices.Equal(seen, want) {
		t.Fatalf("WriteTree announced %v, want %v", seen, want)
	}
	if st, err := p.Stat("/trees/t/m/data"); err != nil || st.Ino != st1.Ino || st.Nlink != 3 {
		t.Fatalf("WriteTree attach: %+v, %v; want ino %d, nlink 3", st, err, st1.Ino)
	}
	// So does a ref attach a watch can see inside.
	trees, err := p.DirRef("/trees")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.AttachFileSet(set, []DirRef{trees}, "r", 0o755, 0, 0, nil)
	}); err != nil {
		t.Fatal(err)
	}
	seen = seen[:0]
	for len(seen) < 2 {
		seen = append(seen, (<-w.C).Path)
	}
	if want := []string{"/trees/r", "/trees/r/data"}; !slices.Equal(seen, want) {
		t.Fatalf("AttachFileSet announced %v, want %v", seen, want)
	}
	// A hard link's metadata is the file's: chmod through one name shows
	// under all of them.
	if err := p.Chmod("/b3/m/data", 0o400); err != nil {
		t.Fatal(err)
	}
	if st, _ := p.Stat("/b1/m/data"); st.Mode != 0o400 {
		t.Fatalf("chmod through /b3 left /b1 at %o", st.Mode)
	}
	// Every directory holds the one trie; consuming one copy must leave
	// the others readable, one link fewer.
	if err := p.RemoveAll("/b1/m"); err != nil {
		t.Fatal(err)
	}
	if data, err := p.ReadFile("/b3/m/data"); err != nil || string(data) != "d" {
		t.Fatalf("surviving copy: %q, %v", data, err)
	}
	if st3, err = p.Stat("/b3/m/data"); err != nil || st3.Nlink != 3 {
		t.Fatalf("nlink after b1 teardown = %d (%v), want 3", st3.Nlink, err)
	}
	// An insert into one holder path-copies its own trie.
	if err := p.WriteString("/b3/m/extra", "x"); err != nil {
		t.Fatal(err)
	}
	if p.Exists("/trees/t/m/extra") {
		t.Fatal("a file created in one holder showed up in another")
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.AttachFileSet(set, refs, "bad/name", 0o755, 0, 0, nil)
	}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("slash in attach name: got %v, want ErrInvalid", err)
	}
	// A set holds files only: a directory has one parent.
	for _, f := range []FileData{{Name: "sub", Children: []FileData{}}, {Name: "sub", Set: set}, {Name: "a/b"}} {
		if err := fs.WithTx(func(tx *Tx) error {
			_, err := tx.NewFileSet([]FileData{f}, 0o444, 0, 0)
			return err
		}); !errors.Is(err, ErrInvalid) {
			t.Fatalf("set entry %+v: got %v, want ErrInvalid", f, err)
		}
	}
	if _, err := p.DirRef("/b3/m/data"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("DirRef on a file: got %v, want ErrNotDir", err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		_, err := tx.DirRef("/b3/m/data")
		return err
	}); !errors.Is(err, ErrNotDir) {
		t.Fatalf("Tx.DirRef on a file: got %v, want ErrNotDir", err)
	}
}
