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
	if err := p.Mkdir("/spool", 0o755); err != nil {
		t.Fatal(err)
	}
	files := []FileData{
		{Name: "data", Data: []byte("payload")},
		{Name: "in_port", Data: []byte("3\n")},
	}
	err := fs.WithTx(func(tx *Tx) error {
		return tx.WriteTree("/spool/m1", files, 0o755, 0o444, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		got, err := p.ReadFile("/spool/m1/" + f.Name)
		if err != nil || string(got) != string(f.Data) {
			t.Fatalf("%s: %q, %v", f.Name, got, err)
		}
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.WriteTree("/spool/m1", files, 0o755, 0o444, 0, 0)
	}); !errors.Is(err, ErrExist) {
		t.Fatalf("recreating existing tree: got %v, want ErrExist", err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.WriteTree("/spool/bad", []FileData{{Name: "a/b"}}, 0o755, 0o444, 0, 0)
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

// TestLinkDirFanoutRefs checks the fan-out primitive the packet-in hot
// path uses: refs resolved once keep working across deliveries, a ref
// whose directory was removed or already holds the name is skipped
// without aborting the rest, only the source's regular files are linked,
// and shared child inodes count every link — down as well as up.
func TestLinkDirFanoutRefs(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	err := fs.WithTx(func(tx *Tx) error {
		if err := tx.MkdirAll("/spool/m/sub", 0o755, 0, 0); err != nil {
			return err
		}
		if err := tx.WriteFile("/spool/m/data", []byte("d"), 0o444, 0, 0); err != nil {
			return err
		}
		for _, d := range []string{"/b1", "/b2", "/b3", "/b4/m"} {
			if err := tx.MkdirAll(d, 0o755, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A subdirectory and a symlink in the source must not be linked.
	if err := p.Symlink("data", "/spool/m/alias"); err != nil {
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
	var got []int
	err = fs.WithTx(func(tx *Tx) error {
		return tx.LinkDirFanoutRefs("/spool/m", refs, "m", 0o755, 0, 0, func(i int) {
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
	for _, skipped := range []string{"/b1/m/sub", "/b1/m/alias"} {
		if p.Exists(skipped) {
			t.Errorf("%s: non-regular child was linked", skipped)
		}
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
		t.Fatalf("refs fan-out copied instead of linked: ino %d vs %d", st1.Ino, st3.Ino)
	}
	if st1.Nlink != 3 { // spool + b1 + b3
		t.Fatalf("nlink = %d, want 3", st1.Nlink)
	}
	// The shared-map alias means every linked dir sees one children set;
	// consuming one copy must still leave the others readable, one link
	// fewer.
	if err := p.RemoveAll("/b1/m"); err != nil {
		t.Fatal(err)
	}
	if data, err := p.ReadFile("/b3/m/data"); err != nil || string(data) != "d" {
		t.Fatalf("surviving copy: %q, %v", data, err)
	}
	if st3, err = p.Stat("/b3/m/data"); err != nil || st3.Nlink != 2 {
		t.Fatalf("nlink after b1 teardown = %d (%v), want 2", st3.Nlink, err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.LinkDirFanoutRefs("/spool/m", refs, "bad/name", 0o755, 0, 0, nil)
	}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("slash in link name: got %v, want ErrInvalid", err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.LinkDirFanoutRefs("/spool/m/data", refs, "x", 0o755, 0, 0, nil)
	}); !errors.Is(err, ErrNotDir) {
		t.Fatalf("fan-out from a file: got %v, want ErrNotDir", err)
	}
	if _, err := p.DirRef("/b3/m/data"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("DirRef on a file: got %v, want ErrNotDir", err)
	}
}
