package vfs

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// fuzzFS builds the resolution fixture: a few nested directories, a
// dangling link, a self-loop, a mutual two-link loop, and a long (but
// legal) symlink chain, so fuzzed paths can reach every branch of the
// resolver — "..", absolute and relative targets, loops, and the ELOOP
// bound.
func fuzzFS(tb testing.TB) *FS {
	tb.Helper()
	fs := New()
	p := fs.RootProc()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(p.MkdirAll("/a/b/c", 0o755))
	must(p.WriteString("/a/b/c/file", "data"))
	must(p.Symlink("/a/b", "/a/abs"))
	must(p.Symlink("b/c", "/a/rel"))
	must(p.Symlink("/nowhere", "/a/dangling"))
	must(p.Symlink("/self", "/self"))
	must(p.Symlink("/loop2", "/loop1"))
	must(p.Symlink("/loop1", "/loop2"))
	must(p.Symlink("../a", "/a/up"))
	// A chain of maxSymlinkHops-1 links: legal, one short of ELOOP.
	must(p.Symlink("/a/b/c", "/chain0"))
	for i := 1; i < maxSymlinkHops-1; i++ {
		must(p.Symlink("/chain"+itoa(i-1), "/chain"+itoa(i)))
	}
	return fs
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// resolveErrOK is the closed set of errors path resolution may return;
// anything else (or a panic) is a bug.
func resolveErrOK(err error) bool {
	if err == nil {
		return true
	}
	return errIsAny(err, ErrNotExist, ErrNotDir, ErrIsDir, ErrAccess,
		ErrTooManyLinks, ErrInvalid, ErrExist)
}

// FuzzPathResolve feeds arbitrary path strings through every resolving
// entry point. Invariants: never panic, never hang (the hop bound is the
// only loop breaker for /loop1 <-> /loop2), and errors stay in the closed
// resolveErrOK set.
func FuzzPathResolve(f *testing.F) {
	for _, seed := range []string{
		"/",
		"",
		"/a/b/c/file",
		"/a/./b/../b/c//file",
		"../../..",
		"/a/abs/c/file",
		"/a/rel/file",
		"/a/dangling",
		"/self",
		"/loop1",
		"/loop1/deeper/path",
		"/chain" + itoa(maxSymlinkHops-2) + "/file",
		"/a/up/up/up/b",
		strings.Repeat("/a/b/..", 50) + "/b/c",
		strings.Repeat("../", 60) + "a/b",
		"/a/b/c/file/not-a-dir",
		"//a///b/./c/",
	} {
		f.Add(seed)
	}
	fs := fuzzFS(f)
	p := fs.RootProc()
	user := fs.Proc(Cred{UID: 7, GID: 7})
	f.Fuzz(func(t *testing.T, path string) {
		if _, err := p.Stat(path); !resolveErrOK(err) {
			t.Fatalf("Stat(%q): unexpected error class %v", path, err)
		}
		// Structural mutation between resolver calls: moving /a/b away and
		// back publishes fresh snapshots and bumps generations mid-corpus,
		// so replays exercise the resolver against a tree whose COW maps
		// just changed — errors must stay in the closed set either way.
		if err := p.Rename("/a/b", "/a/bmv"); err != nil {
			t.Fatalf("churn rename: %v", err)
		}
		if _, err := p.Lstat(path); !resolveErrOK(err) {
			t.Fatalf("Lstat(%q): unexpected error class %v", path, err)
		}
		if _, err := p.ReadDir(path); !resolveErrOK(err) {
			t.Fatalf("ReadDir(%q): unexpected error class %v", path, err)
		}
		if err := p.Rename("/a/bmv", "/a/b"); err != nil {
			t.Fatalf("churn rename back: %v", err)
		}
		if _, err := p.ReadFile(path); !resolveErrOK(err) {
			t.Fatalf("ReadFile(%q): unexpected error class %v", path, err)
		}
		if _, err := user.Stat(path); !resolveErrOK(err) {
			t.Fatalf("user Stat(%q): unexpected error class %v", path, err)
		}
		// Clean must be idempotent and always produce an absolute path.
		c := Clean(path)
		if !strings.HasPrefix(c, "/") || Clean(c) != c {
			t.Fatalf("Clean(%q) = %q, not an idempotent absolute path", path, c)
		}
	})
}

// TestResolveLoopHitsELOOPBound pins the exact bound: a chain of
// maxSymlinkHops-1 links resolves, the true loops fail with
// ErrTooManyLinks, and neither hangs. The retry subtest pins the
// generation-conflict accounting: every lock-free retry charges one hop
// against the same budget (lookupRO), so a resolution that sits exactly
// at the bound is pushed over it by a concurrent-rename storm — the
// livelock surfaces as ELOOP instead of spinning.
func TestResolveLoopHitsELOOPBound(t *testing.T) {
	fs := fuzzFS(t)
	p := fs.RootProc()
	if _, err := p.Stat("/chain" + itoa(maxSymlinkHops-2)); err != nil {
		t.Fatalf("legal %d-hop chain rejected: %v", maxSymlinkHops-1, err)
	}
	for _, path := range []string{"/self", "/loop1", "/loop2", "/loop1/x/y"} {
		_, err := p.Stat(path)
		if !errors.Is(err, ErrTooManyLinks) {
			t.Fatalf("Stat(%q) = %v, want ErrTooManyLinks", path, err)
		}
	}

	// /r/link resolves through the full chain: 1 + (maxSymlinkHops-1)
	// hops — exactly at the bound, legal when uncontended.
	if err := p.Mkdir("/r", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.Symlink("/chain"+itoa(maxSymlinkHops-2), "/r/link"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("/r/link"); err != nil {
		t.Fatalf("legal %d-hop chain via /r/link rejected: %v", maxSymlinkHops, err)
	}

	// Simulate a rename storm on /r: the hook bumps /r's generation on
	// every lock-free lookup of "link", so each walkRCU attempt ends in
	// rcuRetry. lookupRO charges maxRCURetries+1 retry hops before falling
	// back, and the fallback walk inherits them: at-the-bound + retries
	// must yield ErrTooManyLinks, not success and not a spin.
	conflicts := 0
	rcuLookupHook = func(dir *inode, name string) {
		if name == "link" {
			conflicts++
			dir.bumpGen() // what a concurrent rename of /r/link's home does
		}
	}
	defer func() { rcuLookupHook = nil }()
	if _, err := p.Stat("/r/link"); !errors.Is(err, ErrTooManyLinks) {
		t.Fatalf("Stat(/r/link) under retry storm = %v, want ErrTooManyLinks", err)
	}
	if conflicts != maxRCURetries+1 {
		t.Fatalf("hook fired %d times, want %d (maxRCURetries+1)", conflicts, maxRCURetries+1)
	}
}

// TestFuzzPathResolveRandom complements the fuzz harness in normal `go
// test` runs (which only replay the corpus): 20k random path strings in
// the openflow fuzz-test style, biased toward resolver-relevant tokens.
func TestFuzzPathResolveRandom(t *testing.T) {
	fs := fuzzFS(t)
	p := fs.RootProc()
	r := rand.New(rand.NewSource(2))
	tokens := []string{"a", "b", "c", "file", "..", ".", "abs", "rel",
		"dangling", "self", "loop1", "loop2", "up", "chain0", "", "x"}
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		if r.Intn(2) == 0 {
			sb.WriteByte('/')
		}
		for j := r.Intn(8); j >= 0; j-- {
			sb.WriteString(tokens[r.Intn(len(tokens))])
			sb.WriteByte('/')
		}
		path := sb.String()
		if _, err := p.Stat(path); !resolveErrOK(err) {
			t.Fatalf("Stat(%q): unexpected error class %v", path, err)
		}
	}
}

// TestStressResolveChurnRandomPaths is the concurrent sibling of
// TestFuzzPathResolveRandom, named TestStress so the ci.sh -race leg
// picks it up: a mutator churns the fixture's structure (rename, create,
// remove) through the locked write paths while readers resolve random
// token paths lock-free. Invariants: no race, no panic, no hang, and
// every resolver error stays in the closed set. ErrBusy joins the set
// here only because a Stat can land on a directory mid-removal.
func TestStressResolveChurnRandomPaths(t *testing.T) {
	fs := fuzzFS(t)
	p := fs.RootProc()
	tokens := []string{"a", "b", "c", "file", "..", ".", "abs", "rel",
		"dangling", "self", "loop1", "loop2", "up", "chain0", "bmv", "d", ""}
	deadline := 60 * time.Second
	done := make(chan struct{})
	go func() {
		defer close(done)
		stop := make(chan struct{})
		var moverWG sync.WaitGroup
		moverWG.Add(1)
		go func() { // mutator: structural churn via locked entry points
			defer moverWG.Done()
			r := rand.New(rand.NewSource(7))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch r.Intn(4) {
				case 0:
					_ = p.Rename("/a/b", "/a/bmv")
				case 1:
					_ = p.Rename("/a/bmv", "/a/b")
				case 2:
					_ = p.Mkdir("/a/d", 0o755)
				case 3:
					_ = p.RemoveAll("/a/d")
				}
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < 5000; i++ {
					var sb strings.Builder
					sb.WriteByte('/')
					for j := r.Intn(6); j >= 0; j-- {
						sb.WriteString(tokens[r.Intn(len(tokens))])
						sb.WriteByte('/')
					}
					path := sb.String()
					_, err := p.Stat(path)
					if !resolveErrOK(err) && !errors.Is(err, ErrBusy) {
						t.Errorf("Stat(%q): unexpected error class %v", path, err)
						return
					}
				}
			}(int64(g) + 11)
		}
		wg.Wait()
		close(stop)
		moverWG.Wait()
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatal("resolve churn stress hung (possible lock-free retry livelock)")
	}
	if fs.LockStats().ResolveLockfree == 0 {
		t.Error("no lock-free resolutions recorded under churn")
	}
}
