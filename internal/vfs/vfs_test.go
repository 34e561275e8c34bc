package vfs

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCleanAndPathHelpers(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "/"},
		{"/", "/"},
		{"a/b", "/a/b"},
		{"/a//b/", "/a/b"},
		{"/a/./b", "/a/b"},
		{"/a/../b", "/b"},
		{"/../..", "/"},
		{"/a/b/../../c", "/c"},
	}
	for _, c := range cases {
		if got := Clean(c.in); got != c.want {
			t.Errorf("Clean(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if Base("/a/b/c") != "c" || Base("/") != "/" {
		t.Errorf("Base wrong: %q %q", Base("/a/b/c"), Base("/"))
	}
	if Dir("/a/b/c") != "/a/b" || Dir("/a") != "/" || Dir("/") != "/" {
		t.Errorf("Dir wrong")
	}
	if Join("/a", "b", "c") != "/a/b/c" {
		t.Errorf("Join wrong: %q", Join("/a", "b", "c"))
	}
}

func TestMkdirAndStat(t *testing.T) {
	p := New().RootProc()
	if err := p.Mkdir("/switches", 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := p.Stat("/switches")
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsDir() || st.Mode.Perm() != 0o755 {
		t.Errorf("stat = %+v", st)
	}
	if err := p.Mkdir("/switches", 0o755); !errors.Is(err, ErrExist) {
		t.Errorf("second mkdir err = %v, want ErrExist", err)
	}
	if err := p.Mkdir("/missing/child", 0o755); !errors.Is(err, ErrNotExist) {
		t.Errorf("mkdir under missing parent err = %v, want ErrNotExist", err)
	}
}

func TestMkdirAll(t *testing.T) {
	p := New().RootProc()
	if err := p.MkdirAll("/a/b/c/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if !p.IsDir("/a/b/c/d") {
		t.Fatal("deep dir missing")
	}
	// Idempotent.
	if err := p.MkdirAll("/a/b/c/d", 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadFile(t *testing.T) {
	p := New().RootProc()
	if err := p.WriteString("/priority", "100\n"); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadString("/priority")
	if err != nil {
		t.Fatal(err)
	}
	if got != "100" {
		t.Errorf("ReadString = %q, want 100", got)
	}
	b, err := p.ReadFile("/priority")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "100\n" {
		t.Errorf("ReadFile = %q", b)
	}
}

func TestOpenFlags(t *testing.T) {
	p := New().RootProc()
	if _, err := p.Open("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("open missing = %v", err)
	}
	if err := p.WriteString("/f", "hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenFile("/f", O_CREATE|O_EXCL, 0o644); !errors.Is(err, ErrExist) {
		t.Errorf("O_EXCL on existing = %v", err)
	}
	// O_TRUNC clears.
	f, err := p.OpenFile("/f", O_WRONLY|O_TRUNC, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if s, _ := p.ReadString("/f"); s != "" {
		t.Errorf("after trunc content = %q", s)
	}
	// O_APPEND appends.
	if err := p.WriteString("/f", "a"); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendFile("/f", []byte("b"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, _ := p.ReadString("/f"); s != "ab" {
		t.Errorf("append got %q", s)
	}
	// Writing a read-only handle fails.
	rf, err := p.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Write([]byte("x")); !errors.Is(err, ErrBadHandle) {
		t.Errorf("write on rdonly = %v", err)
	}
	rf.Close()
	// Opening a directory for write fails.
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenFile("/d", O_WRONLY, 0); !errors.Is(err, ErrIsDir) {
		t.Errorf("open dir for write = %v", err)
	}
}

func TestSeekAndReadAt(t *testing.T) {
	p := New().RootProc()
	if err := p.WriteString("/f", "0123456789"); err != nil {
		t.Fatal(err)
	}
	f, err := p.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	n, err := f.Read(buf)
	if err != nil || n != 3 || string(buf) != "456" {
		t.Errorf("read after seek: %d %v %q", n, err, buf)
	}
	if _, err := f.Seek(-2, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	n, _ = f.Read(buf)
	if string(buf[:n]) != "89" {
		t.Errorf("seek end read = %q", buf[:n])
	}
	if _, err := f.Read(buf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
	if _, err := f.Seek(-100, io.SeekStart); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative seek = %v", err)
	}
}

func TestSparseWrite(t *testing.T) {
	p := New().RootProc()
	f, err := p.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(5, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	b, _ := p.ReadFile("/f")
	if len(b) != 7 || string(b[5:]) != "xy" || b[0] != 0 {
		t.Errorf("sparse content = %q", b)
	}
}

func TestTruncate(t *testing.T) {
	p := New().RootProc()
	if err := p.WriteString("/f", "abcdef"); err != nil {
		t.Fatal(err)
	}
	f, err := p.OpenFile("/f", O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	f.Close()
	b, _ := p.ReadFile("/f")
	if string(b) != "abc\x00\x00" {
		t.Errorf("truncate content = %q", b)
	}
}

func TestRemove(t *testing.T) {
	p := New().RootProc()
	if err := p.MkdirAll("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/a/b/f", "x"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("/a/b"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("remove non-empty = %v", err)
	}
	if err := p.Remove("/a/b/f"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("/a/b"); err != nil {
		t.Fatal(err)
	}
	if p.Exists("/a/b") {
		t.Fatal("dir still exists")
	}
	if err := p.Remove("/a/b"); !errors.Is(err, ErrNotExist) {
		t.Errorf("remove missing = %v", err)
	}
	if err := p.RemoveAll("/nonexistent"); err != nil {
		t.Errorf("RemoveAll missing = %v", err)
	}
	if err := p.MkdirAll("/x/y/z", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveAll("/x"); err != nil {
		t.Fatal(err)
	}
	if p.Exists("/x") {
		t.Fatal("subtree still exists")
	}
}

func TestRename(t *testing.T) {
	p := New().RootProc()
	if err := p.MkdirAll("/sw/ports", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/sw/id", "1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Rename("/sw", "/sw1"); err != nil {
		t.Fatal(err)
	}
	if !p.Exists("/sw1/ports") || !p.Exists("/sw1/id") || p.Exists("/sw") {
		t.Fatal("rename did not move subtree")
	}
	// Rename onto existing file replaces it.
	if err := p.WriteString("/f1", "a"); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/f2", "b"); err != nil {
		t.Fatal(err)
	}
	if err := p.Rename("/f1", "/f2"); err != nil {
		t.Fatal(err)
	}
	if s, _ := p.ReadString("/f2"); s != "a" {
		t.Errorf("replaced content = %q", s)
	}
	// Dir onto non-empty dir fails.
	if err := p.MkdirAll("/d1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.Rename("/d1", "/sw1"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("rename onto non-empty dir = %v", err)
	}
	// Moving a dir into its own subtree fails.
	if err := p.Rename("/sw1", "/sw1/ports/sub"); !errors.Is(err, ErrInvalid) {
		t.Errorf("rename into own subtree = %v", err)
	}
}

func TestSymlinks(t *testing.T) {
	p := New().RootProc()
	if err := p.MkdirAll("/switches/sw1/ports/1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.MkdirAll("/switches/sw2/ports/2", 0o755); err != nil {
		t.Fatal(err)
	}
	// Absolute target.
	if err := p.Symlink("/switches/sw2/ports/2", "/switches/sw1/ports/1/peer"); err != nil {
		t.Fatal(err)
	}
	tgt, err := p.Readlink("/switches/sw1/ports/1/peer")
	if err != nil || tgt != "/switches/sw2/ports/2" {
		t.Fatalf("readlink = %q %v", tgt, err)
	}
	// Stat follows; Lstat doesn't.
	st, err := p.Stat("/switches/sw1/ports/1/peer")
	if err != nil || !st.IsDir() {
		t.Fatalf("stat through link = %+v %v", st, err)
	}
	lst, err := p.Lstat("/switches/sw1/ports/1/peer")
	if err != nil || lst.Kind != KindSymlink {
		t.Fatalf("lstat = %+v %v", lst, err)
	}
	// Relative target.
	if err := p.WriteString("/switches/sw2/ports/2/hw_addr", "aa:bb"); err != nil {
		t.Fatal(err)
	}
	if err := p.Symlink("../../../sw2/ports/2", "/switches/sw1/ports/1/rel"); err != nil {
		t.Fatal(err)
	}
	if s, err := p.ReadString("/switches/sw1/ports/1/rel/hw_addr"); err != nil || s != "aa:bb" {
		t.Fatalf("through relative link: %q %v", s, err)
	}
	// Dangling link: Lstat works, Stat fails... actually resolve returns nil node.
	if err := p.Symlink("/missing", "/dangle"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("/dangle"); !errors.Is(err, ErrNotExist) {
		t.Errorf("stat dangling = %v", err)
	}
	if _, err := p.Lstat("/dangle"); err != nil {
		t.Errorf("lstat dangling = %v", err)
	}
	// Loop detection.
	if err := p.Symlink("/loop2", "/loop1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Symlink("/loop1", "/loop2"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("/loop1"); !errors.Is(err, ErrTooManyLinks) {
		t.Errorf("loop stat = %v", err)
	}
	// Readlink on non-symlink.
	if _, err := p.Readlink("/switches"); !errors.Is(err, ErrInvalid) {
		t.Errorf("readlink dir = %v", err)
	}
}

func TestCreateThroughDanglingSymlink(t *testing.T) {
	p := New().RootProc()
	if err := p.Mkdir("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.Symlink("/data/real", "/alias"); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/alias", "x"); err != nil {
		t.Fatal(err)
	}
	if s, err := p.ReadString("/data/real"); err != nil || s != "x" {
		t.Errorf("create-through-symlink: %q %v", s, err)
	}
}

func TestHardLinks(t *testing.T) {
	p := New().RootProc()
	if err := p.WriteString("/f", "shared"); err != nil {
		t.Fatal(err)
	}
	if err := p.Link("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	st, _ := p.Stat("/f")
	if st.Nlink != 2 {
		t.Errorf("nlink = %d", st.Nlink)
	}
	if err := p.WriteString("/g", "updated"); err != nil {
		t.Fatal(err)
	}
	if s, _ := p.ReadString("/f"); s != "updated" {
		t.Errorf("hard link content = %q", s)
	}
	if err := p.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if s, _ := p.ReadString("/g"); s != "updated" {
		t.Errorf("after unlink other name = %q", s)
	}
	// Hard links to dirs are refused.
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.Link("/d", "/d2"); !errors.Is(err, ErrPerm) {
		t.Errorf("link dir = %v", err)
	}
}

func TestPermissions(t *testing.T) {
	fs := New()
	root := fs.RootProc()
	alice := fs.Proc(Cred{UID: 1000, GID: 1000})
	bob := fs.Proc(Cred{UID: 1001, GID: 1001})
	carol := fs.Proc(Cred{UID: 1002, GID: 1000}) // same group as alice

	if err := root.Mkdir("/net", 0o755); err != nil {
		t.Fatal(err)
	}
	// alice can't create in root-owned 0755 dir.
	if err := alice.Mkdir("/net/x", 0o755); !errors.Is(err, ErrAccess) {
		t.Errorf("alice mkdir in 0755 root dir = %v", err)
	}
	if err := root.Mkdir("/net/shared", 0o775); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/net/shared", 1000, 1000); err != nil {
		t.Fatal(err)
	}
	// alice (owner) can write.
	if err := alice.WriteString("/net/shared/flow", "v"); err != nil {
		t.Fatal(err)
	}
	// carol (group) can write via group bits.
	if err := carol.WriteString("/net/shared/flow2", "v"); err != nil {
		t.Fatal(err)
	}
	// bob (other) cannot.
	if err := bob.WriteString("/net/shared/flow3", "v"); !errors.Is(err, ErrAccess) {
		t.Errorf("bob write = %v", err)
	}
	// File mode 0600: only alice reads.
	if err := alice.Chmod("/net/shared/flow", 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.ReadFile("/net/shared/flow"); !errors.Is(err, ErrAccess) {
		t.Errorf("bob read 0600 = %v", err)
	}
	if _, err := root.ReadFile("/net/shared/flow"); err != nil {
		t.Errorf("root read = %v", err)
	}
	// Chmod by non-owner denied.
	if err := bob.Chmod("/net/shared/flow", 0o777); !errors.Is(err, ErrPerm) {
		t.Errorf("bob chmod = %v", err)
	}
	// Chown by non-root denied.
	if err := alice.Chown("/net/shared/flow", 1001, 1001); !errors.Is(err, ErrPerm) {
		t.Errorf("alice chown = %v", err)
	}
	// Missing exec on a path component blocks traversal.
	if err := root.Mkdir("/net/private", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteString("/net/private/f", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.ReadFile("/net/private/f"); !errors.Is(err, ErrAccess) {
		t.Errorf("traverse 0700 = %v", err)
	}
}

func TestReadDirOrderAndPerm(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := p.Mkdir("/"+n, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := p.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	if strings.Join(names, ",") != "alpha,mid,zeta" {
		t.Errorf("order = %v", names)
	}
	// No read permission on the dir: denied.
	if err := p.Chmod("/alpha", 0o311); err != nil {
		t.Fatal(err)
	}
	alice := fs.Proc(Cred{UID: 5})
	if _, err := alice.ReadDir("/alpha"); !errors.Is(err, ErrAccess) {
		t.Errorf("readdir without r = %v", err)
	}
}

// TestReadDirResultIsCallerOwned pins that a listing belongs to whoever
// asked for it: an app that filters or re-sorts its result in place must
// not change what the next reader of the same unchanged directory gets
// (listings used to be one memoized slice shared by every caller). Both
// a single-leaf directory and one big enough to be a multi-node trie.
func TestReadDirResultIsCallerOwned(t *testing.T) {
	for _, n := range []int{3, 4 * dirLeafMax} {
		fs := New()
		p := fs.RootProc()
		files := make([]FileData, n)
		for i := range files {
			files[i] = FileData{Name: fmt.Sprintf("f%03d", i), Data: []byte("x")}
		}
		if err := fs.WithTx(func(tx *Tx) error { return tx.WriteTree("/d", files, 0o755, 0o644, 0, 0) }); err != nil {
			t.Fatal(err)
		}
		listers := map[string]func() ([]DirEntry, error){
			"Proc.ReadDir": func() ([]DirEntry, error) { return p.ReadDir("/d") },
			"Tx.ReadDir": func() (out []DirEntry, err error) {
				err = fs.ReadTx(func(tx *Tx) error { out, err = tx.ReadDir("/d"); return err })
				return out, err
			},
		}
		for name, list := range listers {
			first, err := list()
			if err != nil || len(first) != n {
				t.Fatalf("%s: %d entries, %v", name, len(first), err)
			}
			want := append([]DirEntry(nil), first...)
			for i := range first { // what an in-place filter or sort would do
				first[i] = DirEntry{Name: "scribbled"}
			}
			again, err := list()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(again, want) {
				t.Fatalf("%s of a %d-entry dir: a caller's edit to its own result leaked into the next listing: %v", name, n, again[:3])
			}
		}
	}
}

// TestReadFileFailsLikeOpen: the handle-free read owns its failures. A
// ReadFile that cannot open its file returns Open's error and costs what
// one failed Open costs — one resolution, one open, no read.
func TestReadFileFailsLikeOpen(t *testing.T) {
	fs := New()
	root := fs.RootProc()
	if err := root.MkdirAll("/d/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteFile("/d/secret", []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	user := fs.Proc(Cred{UID: 1000, GID: 1000})
	for _, tc := range []struct {
		p    *Proc
		path string
		want error
	}{
		{root, "/d/missing", ErrNotExist},
		{root, "/nodir/f", ErrNotExist},
		{root, "/d/secret/f", ErrNotDir},
		{root, "/d/sub", ErrIsDir},
		{user, "/d/secret", ErrAccess},
	} {
		before := fs.Stats()
		_, openErr := tc.p.Open(tc.path)
		open := fs.Stats().Sub(before)
		before = fs.Stats()
		_, readErr := tc.p.ReadFile(tc.path)
		read := fs.Stats().Sub(before)
		if !errors.Is(readErr, tc.want) || readErr.Error() != openErr.Error() {
			t.Errorf("ReadFile(%s) = %v, Open = %v, want %v from both", tc.path, readErr, openErr, tc.want)
		}
		if read != open {
			t.Errorf("ReadFile(%s) counted %+v, a failed Open counts %+v", tc.path, read, open)
		}
	}
}

func TestXattrs(t *testing.T) {
	p := New().RootProc()
	if err := p.Mkdir("/sw", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.SetXattr("/sw", "user.consistency", []byte("eventual")); err != nil {
		t.Fatal(err)
	}
	if err := p.SetXattr("/sw", "user.owner-app", []byte("topod")); err != nil {
		t.Fatal(err)
	}
	v, err := p.GetXattr("/sw", "user.consistency")
	if err != nil || string(v) != "eventual" {
		t.Fatalf("getxattr = %q %v", v, err)
	}
	names, err := p.ListXattr("/sw")
	if err != nil || len(names) != 2 || names[0] != "user.consistency" {
		t.Fatalf("listxattr = %v %v", names, err)
	}
	if err := p.RemoveXattr("/sw", "user.consistency"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GetXattr("/sw", "user.consistency"); !errors.Is(err, ErrNoAttr) {
		t.Errorf("get removed = %v", err)
	}
	if err := p.RemoveXattr("/sw", "user.consistency"); !errors.Is(err, ErrNoAttr) {
		t.Errorf("remove removed = %v", err)
	}
}

func collectEvents(w *Watch, n int, timeout time.Duration) []Event {
	var out []Event
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case ev, ok := <-w.C:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-deadline:
			return out
		}
	}
	return out
}

func TestWatchBasic(t *testing.T) {
	p := New().RootProc()
	if err := p.Mkdir("/switches", 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := p.AddWatch("/switches", OpCreate|OpRemove)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := p.Mkdir("/switches/sw1", 0o755); err != nil {
		t.Fatal(err)
	}
	evs := collectEvents(w, 1, time.Second)
	if len(evs) != 1 || evs[0].Op != OpCreate || evs[0].Path != "/switches/sw1" || !evs[0].IsDir {
		t.Fatalf("events = %+v", evs)
	}
	// Not recursive: grandchildren unseen.
	if err := p.Mkdir("/switches/sw1/ports", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("/switches/sw1/ports"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("/switches/sw1"); err != nil {
		t.Fatal(err)
	}
	evs = collectEvents(w, 1, time.Second)
	if len(evs) != 1 || evs[0].Op != OpRemove || evs[0].Path != "/switches/sw1" {
		t.Fatalf("remove events = %+v", evs)
	}
}

func TestWatchRecursiveAndMask(t *testing.T) {
	p := New().RootProc()
	if err := p.MkdirAll("/net/switches/sw1/flows", 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := p.AddWatch("/net", OpWrite, Recursive())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Create events are masked out; writes anywhere below /net arrive.
	if err := p.WriteString("/net/switches/sw1/flows/version", "1"); err != nil {
		t.Fatal(err)
	}
	evs := collectEvents(w, 1, time.Second)
	if len(evs) != 1 || evs[0].Op != OpWrite || evs[0].Path != "/net/switches/sw1/flows/version" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestWatchCloseWrite(t *testing.T) {
	p := New().RootProc()
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	w, _ := p.AddWatch("/d", OpCloseWrite)
	defer w.Close()
	f, err := p.Create("/d/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	evs := collectEvents(w, 1, time.Second)
	if len(evs) != 1 || evs[0].Op != OpCloseWrite {
		t.Fatalf("events = %+v", evs)
	}
	// Read-only open+close emits nothing.
	rf, _ := p.Open("/d/f")
	rf.Close()
	if evs := collectEvents(w, 1, 50*time.Millisecond); len(evs) != 0 {
		t.Fatalf("unexpected events %+v", evs)
	}
}

func TestWatchOverflow(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	w, _ := p.AddWatch("/d", OpWrite, BufferSize(4))
	defer w.Close()
	for i := 0; i < 100; i++ {
		if err := p.WriteString("/d/f", "x"); err != nil {
			t.Fatal(err)
		}
	}
	// All 100 events are dispatched into the 4-slot channel before anyone
	// reads it; collecting while the dispatcher still drains can keep pace
	// with it, and then the queue never fills.
	fs.SyncWatches()
	sawOverflow := false
	for _, ev := range collectEvents(w, 10, 200*time.Millisecond) {
		if ev.Op == OpOverflow {
			sawOverflow = true
		}
	}
	if !sawOverflow {
		t.Fatal("expected an overflow event")
	}
}

func TestWatchRename(t *testing.T) {
	p := New().RootProc()
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/d/a", "x"); err != nil {
		t.Fatal(err)
	}
	w, _ := p.AddWatch("/d", OpRename|OpCreate)
	defer w.Close()
	if err := p.Rename("/d/a", "/d/b"); err != nil {
		t.Fatal(err)
	}
	evs := collectEvents(w, 2, time.Second)
	if len(evs) < 2 || evs[0].Op != OpRename || evs[0].NewPath != "/d/b" || evs[1].Op != OpCreate {
		t.Fatalf("rename events = %+v", evs)
	}
}

func TestSemanticMkdirHook(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/views", 0o755); err != nil {
		t.Fatal(err)
	}
	err := fs.WithTx(func(tx *Tx) error {
		return tx.SetSemantics("/views", &DirSemantics{
			OnMkdir: func(tx *Tx, dir, name string) error {
				base := Join(dir, name)
				for _, sub := range []string{"hosts", "switches", "views"} {
					if err := tx.Mkdir(Join(base, sub), 0o755, 0, 0); err != nil {
						return err
					}
				}
				return nil
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/views/new_view", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"hosts", "switches", "views"} {
		if !p.IsDir("/views/new_view/" + sub) {
			t.Errorf("auto child %s missing", sub)
		}
	}
}

func TestSemanticMkdirVeto(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/flows", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.SetSemantics("/flows", &DirSemantics{
			OnMkdir: func(tx *Tx, dir, name string) error {
				if strings.HasPrefix(name, "bad") {
					return ErrInvalid
				}
				return nil
			},
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/flows/bad1", 0o755); !errors.Is(err, ErrInvalid) {
		t.Errorf("vetoed mkdir = %v", err)
	}
	if p.Exists("/flows/bad1") {
		t.Fatal("vetoed dir was left behind")
	}
	if err := p.Mkdir("/flows/good", 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestRecursiveRmdirSemantics(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.MkdirAll("/switches/sw1/flows/f1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.SetSemantics("/switches", &DirSemantics{RecursiveRmdir: true})
	}); err != nil {
		t.Fatal(err)
	}
	// Children need not be removed prior to removing the object (§3.2).
	if err := p.Remove("/switches/sw1"); err != nil {
		t.Fatal(err)
	}
	if p.Exists("/switches/sw1") {
		t.Fatal("switch not removed")
	}
}

func TestValidateSymlinkSemantics(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.MkdirAll("/ports/1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.MkdirAll("/other", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.SetSemantics("/ports/1", &DirSemantics{
			ValidateSymlink: func(tx *Tx, dir, name, target string) error {
				if name == "peer" && !strings.Contains(target, "ports") {
					return ErrInvalid
				}
				return nil
			},
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Symlink("/other", "/ports/1/peer"); !errors.Is(err, ErrInvalid) {
		t.Errorf("invalid peer target = %v", err)
	}
	if err := p.Symlink("/ports/1", "/ports/1/peer"); err != nil {
		t.Errorf("valid peer target = %v", err)
	}
}

func TestProtectedChildren(t *testing.T) {
	fs := New()
	root := fs.RootProc()
	if err := root.MkdirAll("/sw1/flows", 0o777); err != nil {
		t.Fatal(err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.SetSemantics("/sw1", &DirSemantics{Protected: map[string]bool{"flows": true}})
	}); err != nil {
		t.Fatal(err)
	}
	alice := fs.Proc(Cred{UID: 7})
	if err := root.Chmod("/sw1", 0o777); err != nil {
		t.Fatal(err)
	}
	if err := alice.Remove("/sw1/flows"); !errors.Is(err, ErrPerm) {
		t.Errorf("remove protected = %v", err)
	}
	if err := alice.Rename("/sw1/flows", "/sw1/flows2"); !errors.Is(err, ErrPerm) {
		t.Errorf("rename protected = %v", err)
	}
	if err := root.Remove("/sw1/flows"); err != nil {
		t.Errorf("root remove protected = %v", err)
	}
}

func TestSyntheticFile(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/counters", 0o755); err != nil {
		t.Fatal(err)
	}
	reads := 0
	var written []byte
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.SetSynthetic("/counters/rx_packets", &Synthetic{
			Read: func() ([]byte, error) {
				reads++
				return []byte("42\n"), nil
			},
			Write: func(data []byte) error {
				written = append([]byte(nil), data...)
				return nil
			},
		}, 0o644, 0, 0)
	}); err != nil {
		t.Fatal(err)
	}
	s, err := p.ReadString("/counters/rx_packets")
	if err != nil || s != "42" {
		t.Fatalf("synthetic read = %q %v", s, err)
	}
	if reads != 1 {
		t.Errorf("reads = %d", reads)
	}
	if err := p.WriteString("/counters/rx_packets", "0"); err != nil {
		t.Fatal(err)
	}
	if string(written) != "0" {
		t.Errorf("synthetic write got %q", written)
	}
	// Read-only synthetic: write hook nil → close fails.
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.SetSynthetic("/counters/ro", &Synthetic{
			Read: func() ([]byte, error) { return []byte("x"), nil },
		}, 0o644, 0, 0)
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/counters/ro", "y"); !errors.Is(err, ErrPerm) {
		t.Errorf("write read-only synthetic = %v", err)
	}
}

func TestChrootIsolation(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.MkdirAll("/views/v1/switches", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/secret", "top"); err != nil {
		t.Fatal(err)
	}
	jail, err := p.Chroot("/views/v1")
	if err != nil {
		t.Fatal(err)
	}
	if !jail.IsDir("/switches") {
		t.Fatal("jail can't see own subtree")
	}
	// ".." and absolute paths cannot escape.
	if jail.Exists("/../secret") || jail.Exists("/secret") {
		t.Fatal("jail escaped via ..")
	}
	if _, err := jail.ReadFile("/../../secret"); !errors.Is(err, ErrNotExist) {
		t.Errorf("escape read = %v", err)
	}
	// Absolute symlink inside the jail resolves relative to the jail root.
	if err := p.WriteString("/views/v1/data", "inner"); err != nil {
		t.Fatal(err)
	}
	if err := jail.Symlink("/data", "/switches/link"); err != nil {
		t.Fatal(err)
	}
	if s, err := jail.ReadString("/switches/link"); err != nil || s != "inner" {
		t.Errorf("jail symlink = %q %v", s, err)
	}
	// Chroot of a missing path fails.
	if _, err := p.Chroot("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("chroot missing = %v", err)
	}
}

func TestWalkAndGlob(t *testing.T) {
	p := New().RootProc()
	paths := []string{
		"/net/switches/sw1/flows/f1",
		"/net/switches/sw2/flows/f1",
		"/net/hosts",
	}
	for _, pa := range paths {
		if err := p.MkdirAll(pa, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WriteString("/net/switches/sw1/flows/f1/match.tp_dst", "22"); err != nil {
		t.Fatal(err)
	}
	var visited []string
	if err := p.Walk("/net", func(path string, st Stat) error {
		visited = append(visited, path)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(visited) < 8 || visited[0] != "/net" {
		t.Errorf("walk visited %v", visited)
	}
	// SkipDir prunes.
	var pruned []string
	if err := p.Walk("/net", func(path string, st Stat) error {
		pruned = append(pruned, path)
		if path == "/net/switches" {
			return SkipDir
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, v := range pruned {
		if strings.HasPrefix(v, "/net/switches/") {
			t.Errorf("SkipDir did not prune %s", v)
		}
	}
	got, err := p.Glob("/net/switches/*/flows")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "/net/switches/sw1/flows" {
		t.Errorf("glob = %v", got)
	}
	got, _ = p.Glob("/net/switches/sw?")
	if len(got) != 2 {
		t.Errorf("glob ? = %v", got)
	}
}

func TestOpStatsCount(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	before := fs.Stats().Total()
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/d/f", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadFile("/d/f"); err != nil {
		t.Fatal(err)
	}
	after := fs.Stats()
	if after.Total() <= before {
		t.Fatal("stats not counting")
	}
	if after.Creates == 0 || after.Writes == 0 || after.Reads == 0 || after.Opens == 0 {
		t.Errorf("stats = %+v", after)
	}
}

type denyLimiter struct{ after int }

func (d *denyLimiter) Charge(op string, n int) error {
	if d.after <= 0 {
		return ErrQuota
	}
	d.after--
	return nil
}

func TestLimiter(t *testing.T) {
	fs := New()
	p := fs.RootProc().WithLimiter(&denyLimiter{after: 2})
	if err := p.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/c", 0o755); !errors.Is(err, ErrQuota) {
		t.Errorf("limited mkdir = %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "/d/f" + string(rune('a'+i))
			for j := 0; j < 200; j++ {
				if err := p.WriteString(name, "v"); err != nil {
					t.Error(err)
					return
				}
				if _, err := p.ReadFile(name); err != nil {
					t.Error(err)
					return
				}
				if _, err := p.ReadDir("/d"); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	entries, err := p.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Errorf("entries = %d", len(entries))
	}
}

func TestTxWriteAndEvents(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	w, _ := p.AddWatch("/d", OpAll, Recursive())
	defer w.Close()
	err := fs.WithTx(func(tx *Tx) error {
		if err := tx.Mkdir("/d/obj", 0o755, 0, 0); err != nil {
			return err
		}
		if err := tx.WriteFile("/d/obj/a", []byte("1"), 0o644, 0, 0); err != nil {
			return err
		}
		return tx.WriteFile("/d/obj/version", []byte("1"), 0o644, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := collectEvents(w, 5, time.Second)
	if len(evs) != 5 {
		t.Fatalf("tx events = %+v", evs)
	}
	if evs[0].Op != OpCreate || evs[0].Path != "/d/obj" {
		t.Errorf("first event = %+v", evs[0])
	}
}

func TestStatVersionBumps(t *testing.T) {
	p := New().RootProc()
	if err := p.WriteString("/f", "a"); err != nil {
		t.Fatal(err)
	}
	st1, _ := p.Stat("/f")
	if err := p.WriteString("/f", "b"); err != nil {
		t.Fatal(err)
	}
	st2, _ := p.Stat("/f")
	if st2.Version <= st1.Version {
		t.Errorf("version did not advance: %d -> %d", st1.Version, st2.Version)
	}
}
