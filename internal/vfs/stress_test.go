package vfs

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The stress battery exercises the two-level locking scheme (lock.go)
// under -race: mixed structural and non-structural operations from many
// goroutines over overlapping subtrees. Every test runs inside a deadlock
// canary — a lock-ordering violation shows up as a hung test, and the
// canary converts the hang into a failure with full goroutine stacks
// instead of a silent suite timeout.

// runWithDeadline is the deadlock canary: fn must finish within d or the
// test fails with a dump of all goroutine stacks.
func runWithDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<22)
		n := runtime.Stack(buf, true)
		t.Fatalf("deadlock canary tripped after %v; goroutine stacks:\n%s", d, buf[:n])
	}
}

// stressDeadline leaves ample headroom for -race -count=2 on a loaded
// 1-core CI machine while still catching a genuine deadlock quickly.
const stressDeadline = 60 * time.Second

// TestStressMixedStructuralOps runs mkdir/rename/rmdir/readdir/symlink/
// write/stat from 12 goroutines against a small set of overlapping
// subtrees, so structural operations constantly collide on the same
// parents. The assertions are (a) no data race (the -race leg), (b) no
// deadlock (canary), and (c) errors stay within the expected set —
// concurrent structural races surface as ENOENT/EEXIST/ENOTEMPTY, never
// as corruption or panic.
func TestStressMixedStructuralOps(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	const tops = 4
	for i := 0; i < tops; i++ {
		if err := p.MkdirAll(fmt.Sprintf("/t%d/a/b", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	allowed := []error{ErrNotExist, ErrExist, ErrNotEmpty, ErrNotDir, ErrIsDir, ErrInvalid, ErrBusy, ErrAccess, ErrTooManyLinks}
	checkErr := func(err error) error {
		if err == nil || errIsAny(err, allowed...) {
			return nil
		}
		return err
	}

	const workers = 12
	const opsPerWorker = 400
	runWithDeadline(t, stressDeadline, func() {
		var wg sync.WaitGroup
		var bad atomic.Value
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerWorker; i++ {
					top := fmt.Sprintf("/t%d", rng.Intn(tops))
					sub := fmt.Sprintf("%s/a/d%d", top, rng.Intn(6))
					var err error
					switch rng.Intn(8) {
					case 0:
						err = p.Mkdir(sub, 0o755)
					case 1:
						err = p.Remove(sub)
					case 2:
						err = p.Rename(sub, fmt.Sprintf("%s/a/r%d", top, rng.Intn(6)))
					case 3:
						_, err = p.ReadDir(top + "/a")
					case 4:
						err = p.Symlink(top+"/a/b", fmt.Sprintf("%s/a/l%d", top, rng.Intn(6)))
					case 5:
						err = p.WriteString(fmt.Sprintf("%s/a/b/f%d", top, rng.Intn(6)), "x")
					case 6:
						_, err = p.Stat(top + "/a/b")
					case 7:
						err = p.RemoveAll(fmt.Sprintf("%s/a/r%d", top, rng.Intn(6)))
					}
					if e := checkErr(err); e != nil {
						bad.Store(e)
						return
					}
				}
			}(int64(w) + 1)
		}
		wg.Wait()
		if e := bad.Load(); e != nil {
			t.Errorf("unexpected error class under stress: %v", e)
		}
	})

	// The tree must still be coherent: every top-level skeleton readable.
	for i := 0; i < tops; i++ {
		if _, err := p.ReadDir(fmt.Sprintf("/t%d/a", i)); err != nil {
			t.Fatalf("tree corrupt after stress: %v", err)
		}
	}
}

// TestStressRenameVsLookup interleaves a renamer bouncing a directory
// between two names with readers resolving paths through it. A lookup
// must see exactly one of the two names — never both, never neither (the
// rename is atomic under the tree write lock) — and file content reached
// through the moving directory must stay intact.
func TestStressRenameVsLookup(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.MkdirAll("/mv/one/leaf", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/mv/one/leaf/payload", "intact"); err != nil {
		t.Fatal(err)
	}

	runWithDeadline(t, stressDeadline, func() {
		stop := make(chan struct{})
		renamerDone := make(chan struct{})
		go func() { // renamer: bounce the directory until the lookers finish
			defer close(renamerDone)
			names := [2]string{"/mv/one", "/mv/two"}
			cur := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				next := 1 - cur
				if err := p.Rename(names[cur], names[next]); err != nil {
					t.Errorf("rename: %v", err)
					return
				}
				cur = next
			}
		}()
		var found atomic.Uint64
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() { // lookers
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					// The payload lives under exactly one of the two names
					// at any instant. Two separate Stats can both miss when
					// a rename lands between them, so the exactly-one
					// invariant is asserted inside a single read
					// transaction — an atomic snapshot no rename can
					// interleave.
					var one, two bool
					_ = fs.ReadTx(func(tx *Tx) error {
						one = tx.Exists("/mv/one/leaf/payload")
						two = tx.Exists("/mv/two/leaf/payload")
						return nil
					})
					if one == two {
						t.Errorf("payload visibility one=%v two=%v; want exactly one name live", one, two)
						return
					}
					found.Add(1)
					// Plain lookups through the moving directory must fail
					// only with ENOENT, never see a half-renamed state.
					if _, err := p.Stat("/mv/one/leaf/payload"); err != nil && !errors.Is(err, ErrNotExist) {
						t.Errorf("lookup during rename: %v", err)
						return
					}
					if b, err := p.ReadFile("/mv/one/leaf/payload"); err == nil && string(b) != "intact" {
						t.Errorf("payload corrupted: %q", b)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-renamerDone
		if found.Load() == 0 {
			t.Error("no successful lookups recorded")
		}
	})
}

// TestStressHooksUnderLoad drives semantic mkdirs (whose OnMkdir hook
// populates children through the Tx, under the tree write lock) while
// readers walk the same subtree and a recursive watch consumes events.
// This is the lock-ordering rule-3 regression test: a hook that touched
// anything but its Tx would self-deadlock here.
func TestStressHooksUnderLoad(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/objs", 0o755); err != nil {
		t.Fatal(err)
	}
	sem := &DirSemantics{
		OnMkdir: func(tx *Tx, dir, name string) error {
			base := Join(dir, name)
			if err := tx.Mkdir(Join(base, "ports"), 0o755, 0, 0); err != nil {
				return err
			}
			return tx.WriteFile(Join(base, "state"), []byte("init"), 0o644, 0, 0)
		},
		RecursiveRmdir: true,
	}
	if err := fs.WithTx(func(tx *Tx) error { return tx.SetSemantics("/objs", sem) }); err != nil {
		t.Fatal(err)
	}
	w, err := p.AddWatch("/objs", OpAll, Recursive())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() {
		for range w.C { // slow-ish consumer; must never stall writers
			time.Sleep(10 * time.Microsecond)
		}
	}()

	runWithDeadline(t, stressDeadline, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					obj := fmt.Sprintf("/objs/o%d_%d", g, i)
					if err := p.Mkdir(obj, 0o755); err != nil {
						t.Errorf("mkdir %s: %v", obj, err)
						return
					}
					if s, err := p.ReadString(obj + "/state"); err != nil || s != "init" {
						t.Errorf("hook children missing for %s: %q %v", obj, s, err)
						return
					}
					if i%3 == 0 {
						if err := p.Remove(obj); err != nil {
							t.Errorf("recursive rmdir %s: %v", obj, err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestStressSharedFileHandles hammers one inode through independent
// handles — appends racing to swap in their content — while another
// goroutine stats it and, in the first phase, a third truncates. The
// second phase runs without the truncater, so no append may be lost: the
// file ends as the seed plus every appended byte.
func TestStressSharedFileHandles(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	const seed, appenders, appends = "seed", 4, 300
	for _, truncating := range []bool{true, false} {
		if err := p.WriteString("/shared", seed); err != nil {
			t.Fatal(err)
		}
		runWithDeadline(t, stressDeadline, func() {
			var wg sync.WaitGroup
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < appends; i++ {
						if err := p.AppendFile("/shared", []byte("x"), 0o644); err != nil {
							t.Errorf("append: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					if _, err := p.Stat("/shared"); err != nil {
						t.Errorf("stat: %v", err)
						return
					}
				}
			}()
			if truncating {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						f, err := p.OpenFile("/shared", O_WRONLY, 0)
						if err != nil {
							t.Errorf("open: %v", err)
							return
						}
						if err := f.Truncate(1); err != nil {
							t.Errorf("truncate: %v", err)
						}
						f.Close()
					}
				}()
			}
			wg.Wait()
		})
		got, err := p.ReadFile("/shared")
		if err != nil {
			t.Fatalf("file unreadable after stress: %v", err)
		}
		if want := len(seed) + appenders*appends; !truncating && len(got) != want {
			t.Fatalf("after %d concurrent appends the file holds %d bytes, want %d: appends were lost", appenders*appends, len(got), want)
		}
	}
}

// TestStressOpenCreateRace opens the same not-yet-existing path with
// O_CREATE from many goroutines: exactly the fast-path/slow-path handoff
// in OpenFile. All opens must succeed (or lose the race benignly with
// O_EXCL), and exactly one create event may result per path generation.
func TestStressOpenCreateRace(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	runWithDeadline(t, stressDeadline, func() {
		for round := 0; round < 50; round++ {
			path := fmt.Sprintf("/race%d", round)
			var wg sync.WaitGroup
			var exclWins atomic.Uint64
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					flags := O_RDWR | O_CREATE
					if g%2 == 0 {
						flags |= O_EXCL
					}
					f, err := p.OpenFile(path, flags, 0o644)
					if err != nil {
						if flags&O_EXCL != 0 && errors.Is(err, ErrExist) {
							return // lost the exclusive race: expected
						}
						t.Errorf("open %s: %v", path, err)
						return
					}
					if flags&O_EXCL != 0 {
						exclWins.Add(1)
					}
					f.Close()
				}(g)
			}
			wg.Wait()
			if exclWins.Load() > 1 {
				t.Fatalf("%d O_EXCL winners for %s; want at most 1", exclWins.Load(), path)
			}
			if !p.Exists(path) {
				t.Fatalf("%s missing after create race", path)
			}
		}
	})
}

// TestStressRenameVsLockfreeLookup is the rename-vs-RCU torture: a mover
// shuttles directory x between /a and /b through a /t staging area,
// swapping x's marker file only while x is detached from both homes. The
// true states a lock-free walker may observe are therefore exactly
// {/a/x/in_a, /t/x/*, /b/x/in_b}; observing /a/x/in_b or /b/x/in_a would
// be a "frankenstein" path — a stale parent snapshot combined with child
// state the tree only reached after the parent entry was gone — which the
// generation-validation protocol (resolve_rcu.go) exists to forbid.
// Lock-free readers MAY see true mid-transaction states, so the
// assertions use only the wrong-parent combinations, which appear in no
// published state at all.
func TestStressRenameVsLockfreeLookup(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	for _, d := range []string{"/a", "/b", "/t"} {
		if err := p.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Mkdir("/a/x", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/a/x/in_a", "marker"); err != nil {
		t.Fatal(err)
	}
	before := fs.LockStats()

	runWithDeadline(t, stressDeadline, func() {
		stop := make(chan struct{})
		moverDone := make(chan struct{})
		go func() { // mover: a->b then b->a, markers swapped while detached
			defer close(moverDone)
			move := func(from, to, oldMarker, newMarker string) error {
				return fs.WithTx(func(tx *Tx) error {
					if err := tx.Rename(from+"/x", "/t/x"); err != nil {
						return err
					}
					if err := tx.Remove("/t/x/" + oldMarker); err != nil {
						return err
					}
					if err := tx.WriteFile("/t/x/"+newMarker, []byte("marker"), 0o644, 0, 0); err != nil {
						return err
					}
					return tx.Rename("/t/x", to+"/x")
				})
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := move("/a", "/b", "in_a", "in_b"); err != nil {
					t.Errorf("move a->b: %v", err)
					return
				}
				if err := move("/b", "/a", "in_b", "in_a"); err != nil {
					t.Errorf("move b->a: %v", err)
					return
				}
				// With one P (-cpu 1) the mover would otherwise keep it for
				// whole time slices, mostly mid-move, and readers could run
				// out their loops without ever finding x at rest.
				runtime.Gosched()
			}
		}()
		var wg sync.WaitGroup
		var hits atomic.Uint64
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4000; i++ {
					// Frankenstein paths: must fail, always, with ENOENT.
					for _, ghost := range []string{"/a/x/in_b", "/b/x/in_a"} {
						if _, err := p.Stat(ghost); err == nil {
							t.Errorf("observed %s: path existed in no linearization", ghost)
							return
						} else if !errors.Is(err, ErrNotExist) {
							t.Errorf("Stat(%s): %v, want ErrNotExist", ghost, err)
							return
						}
					}
					// True states: succeed or miss benignly, never corrupt.
					for _, real := range []string{"/a/x/in_a", "/b/x/in_b"} {
						b, err := p.ReadFile(real)
						switch {
						case err == nil:
							if string(b) != "marker" {
								t.Errorf("ReadFile(%s) = %q, want %q", real, b, "marker")
								return
							}
							hits.Add(1)
						case errors.Is(err, ErrNotExist):
						default:
							t.Errorf("ReadFile(%s): %v", real, err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-moverDone
		if hits.Load() == 0 {
			t.Error("readers never caught x at rest; torture did not overlap")
		}
	})

	after := fs.LockStats()
	if after.ResolveLockfree == before.ResolveLockfree {
		t.Error("no lock-free resolutions recorded; torture exercised only the fallback path")
	}
}

// TestStressOpenCreateConvergence pins the OpenFile rlock-lookup ->
// wlock-create TOCTOU window (wider now that the lookup is lock-free):
// racing creators of one path must converge on a single inode with
// exactly one create watch event, and content written through any
// winning handle must be visible through the others' inode.
func TestStressOpenCreateConvergence(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	w, err := p.AddWatch("/", OpCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	runWithDeadline(t, stressDeadline, func() {
		for round := 0; round < 50; round++ {
			path := fmt.Sprintf("/conv%d", round)
			const racers = 8
			var wg sync.WaitGroup
			files := make([]*File, racers)
			for g := 0; g < racers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					f, err := p.OpenFile(path, O_RDWR|O_CREATE, 0o644)
					if err != nil {
						t.Errorf("open %s: %v", path, err)
						return
					}
					files[g] = f
				}(g)
			}
			wg.Wait()
			inos := make(map[uint64]bool)
			for _, f := range files {
				if f == nil {
					t.Fatalf("racer for %s got no handle", path)
				}
				st, err := f.Stat()
				if err != nil {
					t.Fatal(err)
				}
				inos[st.Ino] = true
			}
			if len(inos) != 1 {
				t.Fatalf("%s: racers diverged onto %d inodes, want 1", path, len(inos))
			}
			if _, err := files[0].Write([]byte("winner")); err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				f.Close()
			}
			// Cross-handle visibility: everyone converged on the inode that
			// holds the write.
			if s, err := p.ReadString(path); err != nil || s != "winner" {
				t.Fatalf("ReadString(%s) = %q, %v; want %q", path, s, err, "winner")
			}
			fs.SyncWatches()
			creates := 0
			for len(w.C) > 0 {
				ev := <-w.C
				if ev.Op == OpCreate && ev.Path == path {
					creates++
				}
			}
			if creates != 1 {
				t.Fatalf("%s: %d create events, want exactly 1", path, creates)
			}
		}
	})
}

// TestStressWatchPostSwapVisibility checks the watch/RCU ordering
// contract: dispatch runs after the structural swap is published, so by
// the time an event is delivered, a lock-free lookup of the event path
// must already succeed. A violation (event before snapshot publish) would
// make watchers chase paths that do not resolve yet.
func TestStressWatchPostSwapVisibility(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/w", 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := p.AddWatch("/w", OpCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	runWithDeadline(t, stressDeadline, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // unrelated churn keeps snapshots swapping
			defer wg.Done()
			for i := 0; i < 400; i++ {
				_ = p.Mkdir(fmt.Sprintf("/noise%d", i), 0o755)
				_ = p.Remove(fmt.Sprintf("/noise%d", i))
			}
		}()
		for i := 0; i < 400; i++ {
			path := fmt.Sprintf("/w/f%d", i)
			if err := p.WriteString(path, "x"); err != nil {
				t.Fatal(err)
			}
			ev := <-w.C
			if ev.Op != OpCreate {
				continue
			}
			// The event is the happens-after edge: the lock-free walk must
			// observe the post-swap snapshot immediately, no retry excuse.
			if _, err := p.Stat(ev.Path); err != nil {
				t.Fatalf("Stat(%s) after its create event: %v", ev.Path, err)
			}
		}
		wg.Wait()
	})
}

// TestStressChaosAttrsAndXattrs mixes metadata paths that now run under
// the tree read lock (chmod/chown/xattr) with structural churn on the
// same nodes. Named Chaos so the CI -run 'Stress|Chaos' leg picks it up
// alongside the Stress tests.
func TestStressChaosAttrsAndXattrs(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.MkdirAll("/meta/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/meta/d/f", "x"); err != nil {
		t.Fatal(err)
	}
	allowed := []error{ErrNotExist, ErrExist, ErrNoAttr, ErrNotEmpty}
	runWithDeadline(t, stressDeadline, func() {
		var wg sync.WaitGroup
		for g := 0; g < 10; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 300; i++ {
					var err error
					switch rng.Intn(6) {
					case 0:
						err = p.Chmod("/meta/d/f", FileMode(0o600+rng.Intn(0o100)))
					case 1:
						err = p.Chown("/meta/d/f", rng.Intn(4), rng.Intn(4))
					case 2:
						err = p.SetXattr("/meta/d/f", "user.k", []byte{byte(i)})
					case 3:
						_, err = p.GetXattr("/meta/d/f", "user.k")
					case 4:
						_, err = p.ListXattr("/meta/d/f")
					case 5:
						_, err = p.Stat("/meta/d/f")
					}
					if err != nil && !errIsAny(err, allowed...) {
						t.Errorf("metadata op: %v", err)
						return
					}
				}
			}(int64(g) + 99)
		}
		wg.Wait()
	})
	st, err := p.Stat("/meta/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Version == 0 {
		t.Fatal("metadata churn never bumped the version")
	}
}

// TestStressDirCursorAcrossSplit walks one directory with lock-free
// cursors while a writer moves it back and forth across the trie's
// shape boundary: up to 34 entries, past the split at 33, and down to
// 15, past the collapse at 16, creating fresh names and removing the
// oldest. The writer numbers its publishes; before publishing the k-th,
// it records k as the birth of the name it creates or the death of the
// name it removes, so the root published k-th holds exactly the names
// born at or before k and dying after it. A walk that starts while
// publish s0 is the latest and ends while s1 is can only have opened, or
// been overtaken by, roots s0 through s1+1. Each walk must yield no name
// twice, as many names as its Len, and none outside the union of those
// roots: born after s1+1, or dead by s0.
func TestStressDirCursorAcrossSplit(t *testing.T) {
	const ids = 3000
	fs := New()
	p := fs.RootProc()
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	ref, err := p.DirRef("/d")
	if err != nil {
		t.Fatal(err)
	}
	var (
		born, died [ids]atomic.Int64
		pub        atomic.Int64 // publishes made
		walks      atomic.Int64
	)
	for i := range died {
		died[i].Store(1 << 62)
	}
	name := func(id int) string { return fmt.Sprintf("n%05d", id) }
	runWithDeadline(t, stressDeadline, func() {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() { // the writer
			defer wg.Done()
			defer close(stop)
			oldest, next := 0, 0
			for next < ids {
				for next < ids && next-oldest < 34 {
					born[next].Store(pub.Load() + 1)
					if err := p.WriteFile("/d/"+name(next), nil, 0o644); err != nil {
						t.Error(err)
						return
					}
					pub.Add(1)
					next++
				}
				for next-oldest > 15 {
					died[oldest].Store(pub.Load() + 1)
					if err := p.Remove("/d/" + name(oldest)); err != nil {
						t.Error(err)
						return
					}
					pub.Add(1)
					oldest++
				}
			}
		}()
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seen := make([]bool, ids)
				for {
					select {
					case <-stop:
						return
					default:
					}
					s0 := pub.Load()
					it, err := p.OpenDirAt(ref, ".")
					if err != nil {
						t.Error(err)
						return
					}
					clear(seen)
					n := 0
					for e, ok := it.Next(); ok; e, ok = it.Next() {
						var id int
						if _, err := fmt.Sscanf(e.Name, "n%05d", &id); err != nil || id >= ids {
							t.Errorf("walk yielded %q", e.Name)
							return
						}
						if seen[id] {
							t.Errorf("walk yielded %s twice", e.Name)
							return
						}
						seen[id] = true
						n++
						if n%8 == 0 {
							runtime.Gosched() // let the writer publish mid-walk
						}
					}
					s1 := pub.Load()
					if n != it.Len() {
						t.Errorf("walk yielded %d names of a %d-entry snapshot", n, it.Len())
						return
					}
					for id, ok := range seen {
						if !ok {
							continue
						}
						if b, d := born[id].Load(), died[id].Load(); b > s1+1 || d <= s0 {
							t.Errorf("walk over publishes %d..%d yielded %s, which lived from %d to %d", s0, s1+1, name(id), b, d)
							return
						}
					}
					walks.Add(1)
				}
			}()
		}
		wg.Wait()
	})
	if walks.Load() == 0 {
		t.Fatal("no walk finished while the writer ran")
	}
}
