package vfs

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"
)

// checkDirNode verifies the structural invariants of the subtree at d,
// which sits at depth shift below slots whose hash bits are prefix (the
// low shift bits), and returns its entry count.
func checkDirNode(t *testing.T, d *dirNode, shift uint, prefix uint32) int {
	t.Helper()
	if d.bitmap == 0 {
		if len(d.kids) != 0 {
			t.Fatalf("leaf with %d kids", len(d.kids))
		}
		if len(d.ents) == 0 {
			t.Fatal("empty leaf kept in the trie")
		}
		if len(d.ents) > dirLeafMax && shift < dirHashBits {
			t.Fatalf("leaf of %d entries at shift %d should have split", len(d.ents), shift)
		}
		for i, e := range d.ents {
			if i > 0 && d.ents[i-1].name >= e.name {
				t.Fatalf("leaf unsorted or duplicated: %q then %q", d.ents[i-1].name, e.name)
			}
			if mask := uint32(1)<<min(shift, dirHashBits) - 1; dirHash(e.name)&mask != prefix {
				t.Fatalf("entry %q (hash %#x) filed under prefix %#x at shift %d", e.name, dirHash(e.name), prefix, shift)
			}
		}
		if int(d.n) != len(d.ents) {
			t.Fatalf("leaf n = %d with %d entries", d.n, len(d.ents))
		}
		return len(d.ents)
	}
	if len(d.ents) != 0 {
		t.Fatalf("branch with %d inline entries", len(d.ents))
	}
	if bits.OnesCount32(d.bitmap) != len(d.kids) {
		t.Fatalf("bitmap %#x with %d kids", d.bitmap, len(d.kids))
	}
	total, pos := 0, 0
	for slot := uint32(0); slot < dirFanout; slot++ {
		if d.bitmap&(1<<slot) == 0 {
			continue
		}
		total += checkDirNode(t, d.kids[pos], shift+dirFanoutBits, prefix|slot<<shift)
		pos++
	}
	if int(d.n) != total {
		t.Fatalf("branch n = %d, subtree holds %d", d.n, total)
	}
	if total <= dirLeafMax/2 {
		t.Fatalf("branch of %d entries should have collapsed into a leaf", total)
	}
	return total
}

// checkDirModel compares a trie against its reference map: same size,
// same entries by iteration, same answers by lookup, sound structure.
func checkDirModel(t *testing.T, d *dirNode, model map[string]*inode) {
	t.Helper()
	if d.count() != len(model) {
		t.Fatalf("len = %d, model has %d", d.count(), len(model))
	}
	if d == nil {
		return
	}
	if got := checkDirNode(t, d, 0, 0); got != len(model) {
		t.Fatalf("structure holds %d entries, model has %d", got, len(model))
	}
	seen := 0
	for it := d.iter(); ; {
		e, ok := it.next()
		if !ok {
			break
		}
		if model[e.name] != e.c {
			t.Fatalf("iteration yields %q → %p, model has %p", e.name, e.c, model[e.name])
		}
		seen++
	}
	if seen != len(model) {
		t.Fatalf("iteration yields %d entries, model has %d", seen, len(model))
	}
	for name, c := range model {
		if got, ok := d.get(name); !ok || got != c {
			t.Fatalf("get(%q) = %p, %v; model has %p", name, got, ok, c)
		}
	}
}

// TestDirTrieModel drives seeded random insert / replace / delete /
// lookup / iterate through the children trie beside a map[string]*inode
// reference, at sizes from empty to 10⁵ and back, under the real hash
// and under degenerate hashes that force the paths a good hash all but
// never takes: every name in one slot per level (maximum depth, then a
// leaf that cannot split and must simply grow), and four hash values in
// all (deep chains of single-child branches). Every check also verifies
// the structural invariants — sorted duplicate-free leaves, split and
// collapse thresholds, bitmap/kids/count agreement, hash-prefix filing —
// and an old root captured mid-run must still equal the model it was
// captured with at the end: nodes are immutable after publish.
func TestDirTrieModel(t *testing.T) {
	cases := []struct {
		name  string
		hash  func(string) uint32
		names int // names in play
		ops   int
		reach int // entries the directory must hold at its largest
	}{
		{"hashName", hashName, 200_000, 500_000, 100_000},
		{"hashName-small", hashName, 40, 20_000, dirLeafMax + 1},
		{"all-collide", func(string) uint32 { return 0 }, 300, 6_000, 4 * dirLeafMax},
		{"four-values", func(s string) uint32 { return (hashName(s) & 3) * 0x42108421 }, 1_000, 20_000, 16 * dirLeafMax},
		{"low-bits-collide", func(s string) uint32 { return hashName(s) &^ 0x3ff }, 5_000, 40_000, 3_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func(old func(string) uint32) { dirHash = old }(dirHash)
			dirHash = tc.hash
			rng := rand.New(rand.NewSource(7))
			var root *dirNode
			model := map[string]*inode{}
			var oldRoot *dirNode
			var oldModel map[string]*inode
			name := func() string { return fmt.Sprintf("n%06d", rng.Intn(tc.names)) }
			largest := 0
			for op := 0; op < tc.ops; op++ {
				// Three puts in four for the first half of the run, three
				// deletes in four for the second: the directory grows to
				// about 3/4 of the names in play, then drains.
				put := rng.Intn(4) != 0
				if op >= tc.ops/2 {
					put = !put
				}
				k := name()
				if put {
					c := &inode{ino: uint64(op)}
					root = root.put(k, c)
					model[k] = c
				} else {
					before := root
					root = root.del(k)
					if _, had := model[k]; !had && root != before {
						t.Fatalf("op %d: deleting absent %q built a new root", op, k)
					}
					delete(model, k)
				}
				largest = max(largest, len(model))
				probe := name()
				if got, ok := root.get(probe); got != model[probe] || ok != (model[probe] != nil) {
					t.Fatalf("op %d: get(%q) = %p, %v; model has %p", op, probe, got, ok, model[probe])
				}
				if op == tc.ops/3 {
					oldRoot, oldModel = root, make(map[string]*inode, len(model))
					for k, v := range model {
						oldModel[k] = v
					}
				}
				if op%(tc.ops/8) == 0 || len(model) < 2*dirLeafMax && op%64 == 0 {
					checkDirModel(t, root, model)
				}
			}
			if largest < tc.reach {
				t.Fatalf("directory peaked at %d entries, the case is meant to reach %d", largest, tc.reach)
			}
			checkDirModel(t, root, model)
			checkDirModel(t, oldRoot, oldModel)
			for k := range model {
				root = root.del(k)
			}
			if root != nil {
				t.Fatalf("deleting every entry left a %d-entry trie", root.count())
			}
		})
	}
}

// TestDirTrieBulkBuildMatchesInserts pins newDir (WriteTree's bulk
// builder) against repeated put: same entries, last duplicate wins, and
// the same shape an insert-built trie of that size has.
func TestDirTrieBulkBuildMatchesInserts(t *testing.T) {
	for _, n := range []int{0, 1, dirLeafMax, dirLeafMax + 1, 500, 20_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		var ents []dirEnt
		var byPut *dirNode
		model := map[string]*inode{}
		for i := 0; i < n+n/10; i++ {
			e := dirEnt{fmt.Sprintf("f%d", rng.Intn(n+1)), &inode{ino: uint64(i)}}
			ents = append(ents, e)
			byPut = byPut.put(e.name, e.c)
			model[e.name] = e.c
		}
		bulk := newDir(ents)
		checkDirModel(t, bulk, model)
		checkDirModel(t, byPut, model)
	}
}

// TestDirTrieStructuralSharing pins what makes directory cost
// independent of directory size: one insert into (or delete from) a
// 10⁵-entry directory allocates a root-to-leaf path — a few hundred
// bytes per level — where a copy-on-write map re-copies megabytes.
func TestDirTrieStructuralSharing(t *testing.T) {
	ents := make([]dirEnt, 100_000)
	for i := range ents {
		ents[i] = dirEnt{fmt.Sprintf("c%06d", i), &inode{}}
	}
	root := newDir(ents)
	c := &inode{}
	const rounds = 64
	var names [rounds]string
	var grown [rounds]*dirNode
	for i := range names {
		names[i] = fmt.Sprintf("new%d", i)
	}
	allocated := func(fn func(i int)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			fn(i)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	perInsert := allocated(func(i int) { grown[i] = root.put(names[i], c) })
	perDelete := allocated(func(i int) { grown[i] = grown[i].del(names[i]) })
	t.Logf("one insert allocated %d B, one delete %d B", perInsert, perDelete)
	if perInsert > 4<<10 || perDelete > 4<<10 {
		t.Fatalf("in a %d-entry directory one insert allocated %d bytes and one delete %d, want <= 4 KB each",
			len(ents), perInsert, perDelete)
	}
	for i, g := range grown {
		if g.count() != len(ents) {
			t.Fatalf("round %d: %d entries after insert+delete, want %d", i, g.count(), len(ents))
		}
	}
	if _, ok := root.get(names[0]); ok || root.count() != len(ents) {
		t.Fatal("an insert changed the root it started from")
	}
}

// TestInodeSize pins the kind split: an inode carries only what every
// node uses, so the 16-inode slab of one flow fits the 1,792-byte size
// class instead of the 3,072-byte one 16 × 176 bytes needed. The slab
// holds pointers and is over 512 bytes, so the runtime prepends an
// 8-byte type header: the budget is 1,784 bytes, 111 per inode.
func TestInodeSize(t *testing.T) {
	if got := unsafe.Sizeof(inode{}); got > 112 || 16*got+8 > 1792 {
		t.Fatalf("unsafe.Sizeof(inode{}) = %d: a 16-inode slab needs %d bytes, want <= 1792", got, 16*got+8)
	}
}

// TestAllocDirLookup pins the read side of the trie: lookups at every
// depth and a full iteration allocate nothing. Dynamic cross-check of
// the //yancvet:hotalloc annotations on get / iter / next.
func TestAllocDirLookup(t *testing.T) {
	for _, n := range []int{14, 2_000, 100_000} {
		ents := make([]dirEnt, n)
		for i := range ents {
			ents[i] = dirEnt{fmt.Sprintf("c%06d", i), &inode{}}
		}
		root := newDir(ents)
		sort.Slice(ents, func(i, j int) bool { return ents[i].name < ents[j].name })
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < n; i += 1 + n/97 {
				if _, ok := root.get(ents[i].name); !ok {
					t.Fatalf("%s missing", ents[i].name)
				}
			}
			if _, ok := root.get("absent"); ok {
				t.Fatal("absent name found")
			}
			seen := 0
			for it := root.iter(); ; {
				if _, ok := it.next(); !ok {
					break
				}
				seen++
			}
			if seen != n {
				t.Fatalf("iterated %d of %d", seen, n)
			}
		})
		if allocs != 0 {
			t.Fatalf("lookup+iterate over %d entries allocates %.0f objects, want 0", n, allocs)
		}
	}
}
