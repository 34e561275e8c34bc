package vfs

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// The giant-directory battery pins the size-independent behavior
// yancload depends on: a flow directory with 10⁵ children must support
// readdir, rename, and unlink without copying the whole directory per
// operation (the persistent children trie, dirtrie.go, copies one
// root-to-leaf path). The Stress/Alloc names put these in ci.sh's -race
// battery.

const giantN = 100_000

// giantDir builds /big with n file children named c000000..c0n in one
// WriteTree batch (incremental population is not what these tests pin).
func giantDir(t testing.TB, fs *FS, n int) {
	t.Helper()
	files := make([]FileData, n)
	for i := range files {
		files[i] = FileData{Name: fmt.Sprintf("c%06d", i), Data: []byte("5")}
	}
	err := fs.WithTx(func(tx *Tx) error {
		return tx.WriteTree("/big", files, 0o755, 0o644, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStressGiantDirOps pins readdir/rename/Remove correctness at 10⁵
// children: listings stay sorted and complete, renames move exactly one
// entry, removals shrink the directory, and Stat's size tracks the
// child count.
func TestStressGiantDirOps(t *testing.T) {
	fs := New()
	giantDir(t, fs, giantN)
	p := fs.RootProc()

	entries, err := p.ReadDir("/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != giantN {
		t.Fatalf("readdir: %d entries, want %d", len(entries), giantN)
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name }) {
		t.Fatal("readdir result not sorted")
	}
	if entries[0].Name != "c000000" || entries[giantN-1].Name != fmt.Sprintf("c%06d", giantN-1) {
		t.Fatalf("readdir endpoints: %q .. %q", entries[0].Name, entries[giantN-1].Name)
	}
	st, err := p.Stat("/big")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != giantN {
		t.Fatalf("dir size = %d, want %d", st.Size, giantN)
	}

	// Rename a scatter of entries: old names gone, new names present,
	// count unchanged.
	for i := 0; i < 100; i++ {
		old := fmt.Sprintf("/big/c%06d", i*997)
		if err := p.Rename(old, fmt.Sprintf("/big/r%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if p.Exists(fmt.Sprintf("/big/c%06d", i*997)) {
			t.Fatalf("renamed entry %d still present under old name", i)
		}
		if !p.Exists(fmt.Sprintf("/big/r%06d", i)) {
			t.Fatalf("renamed entry %d missing under new name", i)
		}
	}
	if st, _ := p.Stat("/big"); st.Size != giantN {
		t.Fatalf("dir size after renames = %d, want %d", st.Size, giantN)
	}

	// Remove a block (skipping indices the rename pass moved away); the
	// listing and count shrink exactly.
	removed := 0
	for i := 1000; i < 2000; i++ {
		if i%997 == 0 {
			continue
		}
		if err := p.Remove(fmt.Sprintf("/big/c%06d", i)); err != nil {
			t.Fatal(err)
		}
		removed++
	}
	entries, err = p.ReadDir("/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != giantN-removed {
		t.Fatalf("readdir after removes: %d entries, want %d", len(entries), giantN-removed)
	}
	if p.Exists("/big/c001500") {
		t.Fatal("removed entry still resolvable")
	}
}

// TestAllocGiantDirReaddirCached pins what a repeat ReadDir of an
// unchanged 10⁵-entry directory costs: the copy the caller owns and
// nothing per entry, because the walk and the sort ran once and the
// sorted listing stays on the trie root until the directory changes. A
// single-leaf directory keeps no such memo (it is listed in order as it
// stands, and a flow directory must not pay 32 B per file for it).
// Dynamic cross-check of the //yancvet:hotalloc static rule (DESIGN.md
// §11): the analyzer proves the annotated resolve and trie-iteration
// paths can't allocate; this pin bounds the adjacent readdir path the
// static rule doesn't cover. Keep both.
func TestAllocGiantDirReaddirCached(t *testing.T) {
	fs := New()
	giantDir(t, fs, giantN)
	p := fs.RootProc()
	if err := p.WriteString("/small", "x"); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/big", "/"} {
		if _, err := p.ReadDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	big, _ := fs.root.lookupChild("big")
	if big.kids().listing.Load() == nil {
		t.Fatal("a listed multi-node directory kept no listing: every ReadDir re-sorts it")
	}
	if fs.root.kids().listing.Load() != nil {
		t.Fatal("a single-leaf directory memoized its listing")
	}
	allocs := testing.AllocsPerRun(10, func() {
		entries, err := p.ReadDir("/big")
		if err != nil || len(entries) != giantN {
			t.Fatalf("readdir: %d entries, err %v", len(entries), err)
		}
	})
	if allocs > 8 {
		t.Fatalf("readdir allocates %.0f objects per call, want <= 8", allocs)
	}
	// A change drops the memo with the root it hung on.
	if err := p.Remove("/big/c000000"); err != nil {
		t.Fatal(err)
	}
	if big.kids().listing.Load() != nil {
		t.Fatal("listing survived a change to the directory")
	}
	if entries, err := p.ReadDir("/big"); err != nil || len(entries) != giantN-1 || entries[0].Name != "c000001" {
		t.Fatalf("readdir after remove: %d entries, err %v", len(entries), err)
	}
}

// TestAllocGiantDirRenameBounded pins structural sharing through the
// public API: renames in a 10⁵-entry directory must not copy the whole
// directory per op. 128 renames are 128 path-copying deletes and 128
// inserts at ~1 KB each plus event paths; with a per-op copy the same
// loop moves gigabytes. The bound is on allocated bytes, which is what
// an O(n)-per-op regression actually moves.
func TestAllocGiantDirRenameBounded(t *testing.T) {
	fs := New()
	giantDir(t, fs, giantN)
	p := fs.RootProc()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 128; i++ {
		old := fmt.Sprintf("/big/c%06d", 50_000+i)
		if err := p.Rename(old, fmt.Sprintf("/big/m%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	// 256 path copies are ~0.3 MiB; one copy of the 10⁵-entry directory
	// alone is more than the whole budget.
	const limit = 2 << 20
	if total > limit {
		t.Fatalf("128 renames in a %d-entry dir allocated %d bytes, want <= %d", giantN, total, limit)
	}
}

// TestStressGiantDirChurnVsReaddr races structural churn (rename,
// remove, create) against lock-free readers (ReadDir, Stat, Exists) on
// one 2·10⁴-entry directory. Assertions: no race (-race leg), no
// deadlock (canary), readers always see internally consistent listings
// (sorted, no duplicate names), and the final state matches the churn's
// net effect.
func TestStressGiantDirChurnVsReaddr(t *testing.T) {
	fs := New()
	const n = 20_000
	giantDir(t, fs, n)
	p := fs.RootProc()
	runWithDeadline(t, stressDeadline, func() {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					j := rng.Intn(n)
					switch i % 3 {
					case 0:
						_ = p.Rename(fmt.Sprintf("/big/c%06d", j), fmt.Sprintf("/big/w%d-%06d", w, i))
					case 1:
						_ = p.Remove(fmt.Sprintf("/big/w%d-%06d", w, i-1))
					default:
						_ = p.WriteFile(fmt.Sprintf("/big/c%06d", j), []byte("5"), 0o644)
					}
				}
			}(w)
		}
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + r)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					entries, err := p.ReadDir("/big")
					if err != nil {
						t.Errorf("readdir: %v", err)
						return
					}
					for i := 1; i < len(entries); i++ {
						if entries[i-1].Name >= entries[i].Name {
							t.Errorf("listing unsorted or duplicated at %d: %q >= %q",
								i, entries[i-1].Name, entries[i].Name)
							return
						}
					}
					_, _ = p.Stat("/big")
					p.Exists(fmt.Sprintf("/big/c%06d", rng.Intn(n)))
				}
			}(r)
		}
		time.Sleep(500 * time.Millisecond)
		close(stop)
		wg.Wait()
	})
	// Churn only ever replaces or removes entries, so the directory can
	// never exceed its initial population.
	entries, err := p.ReadDir("/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || len(entries) > n {
		t.Fatalf("final entry count %d out of range (0, %d]", len(entries), n)
	}
}
