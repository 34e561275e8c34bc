package vfs

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// testName returns a private name blob for name, as the intern pool
// makes once it is full: the trie tests build names by the hundred
// thousand and leave the process-wide pool alone.
func testName(name string) *byte { return blobOf([]byte(name)) }

// testEnt is the entry naming c name.
func testEnt(name string, c *inode) dirEnt { return dirEnt{testName(name), c} }

// checkDirNode verifies the structural invariants of the subtree at d,
// which sits at depth shift below slots whose hash bits are prefix (the
// low shift bits), and returns its entry count.
func checkDirNode(t *testing.T, d *dirNode, shift uint, prefix uint32) int {
	t.Helper()
	if d.p == nil {
		t.Fatal("node without entries or children kept in the trie")
	}
	if d.bitmap == 0 {
		ents := d.leaf()
		if len(ents) == 0 {
			t.Fatal("empty leaf kept in the trie")
		}
		if len(ents) > dirLeafMax && shift < dirHashBits {
			t.Fatalf("leaf of %d entries at shift %d should have split", len(ents), shift)
		}
		for i, e := range ents {
			name := nameOf(e.name)
			if name == "" || len(bodyOf(e.name)) != len(name) {
				t.Fatalf("entry %d: name blob %q, body %q", i, name, bodyOf(e.name))
			}
			if i > 0 && nameOf(ents[i-1].name) >= name {
				t.Fatalf("leaf unsorted or duplicated: %q then %q", nameOf(ents[i-1].name), name)
			}
			if mask := uint32(1)<<min(shift, dirHashBits) - 1; dirHash(name)&mask != prefix {
				t.Fatalf("entry %q (hash %#x) filed under prefix %#x at shift %d", name, dirHash(name), prefix, shift)
			}
		}
		return len(ents)
	}
	kids := d.branch()
	total, pos := 0, 0
	for slot := uint32(0); slot < dirFanout; slot++ {
		if d.bitmap&(1<<slot) == 0 {
			continue
		}
		total += checkDirNode(t, kids[pos], shift+dirFanoutBits, prefix|slot<<shift)
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
		if name := nameOf(e.name); model[name] != e.c {
			t.Fatalf("iteration yields %q → %p, model has %p", name, e.c, model[name])
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

// The degenerate hashes TestDirTrieModel and FuzzDirTrie run the trie
// under: every name in one slot per level, four hash values in all, and
// the low ten bits always zero (two levels of single-child branches).
func hashAllCollide(string) uint32       { return 0 }
func hashFourValues(s string) uint32     { return (hashName(s) & 3) * 0x42108421 }
func hashLowBitsCollide(s string) uint32 { return hashName(s) &^ 0x3ff }

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
		{"all-collide", hashAllCollide, 300, 6_000, 4 * dirLeafMax},
		{"four-values", hashFourValues, 1_000, 20_000, 16 * dirLeafMax},
		{"low-bits-collide", hashLowBitsCollide, 5_000, 40_000, 3_000},
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
					root = root.put(testName(k), c)
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
			e := testEnt(fmt.Sprintf("f%d", rng.Intn(n+1)), &inode{ino: uint64(i)})
			ents = append(ents, e)
			byPut = byPut.put(e.name, e.c)
			model[nameOf(e.name)] = e.c
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
		ents[i] = testEnt(fmt.Sprintf("c%06d", i), &inode{})
	}
	root := newDir(ents)
	c := &inode{}
	const rounds = 64
	var names [rounds]*byte
	var grown [rounds]*dirNode
	for i := range names {
		names[i] = testName(fmt.Sprintf("new%d", i))
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
	perDelete := allocated(func(i int) { grown[i] = grown[i].del(nameOf(names[i])) })
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
	if _, ok := root.get(nameOf(names[0])); ok || root.count() != len(ents) {
		t.Fatal("an insert changed the root it started from")
	}
}

// TestInodeSize pins an inode at 48 bytes: it carries only what every
// node uses, the kind rides in the mode word, the version is 32 bits
// beside the transaction mark, there is one timestamp, and one data word
// holds a file's content, a symlink's target, a directory's state or —
// for the rare node with a provider or xattrs — a record. A flow's 14
// inodes (yancfs.TestFlowFootprint) then take 672 B in the chunks
// TestSlabChunk pins.
func TestInodeSize(t *testing.T) {
	if got := unsafe.Sizeof(inode{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(inode{}) = %d, want 48", got)
	}
}

// TestDirNodeSize pins a directory's stored form: a trie node is a
// bitmap, a count and one pointer; an entry a name blob and an inode
// pointer; a directory's state holds its own name as a blob and its
// xattr map. A flow's 13-entry leaf is then 208 B of entries and a
// 16-byte node, and its two states 96 B of WriteTree's slab.
func TestDirNodeSize(t *testing.T) {
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"dirNode", unsafe.Sizeof(dirNode{}), 16},
		{"dirEnt", unsafe.Sizeof(dirEnt{}), 16},
		{"dirState", unsafe.Sizeof(dirState{}), 48},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", c.what, c.got, c.want)
		}
	}
}

// TestSlabChunk pins the tree builder's inode chunks at no more than 512
// bytes: the runtime prefixes every object with pointers that is larger
// than that with an 8-byte malloc header, which would push 512 bytes of
// inodes into the next size class. It also checks the chunks a flow's 14
// inodes come from, 10 and 4 (480 + 192 B), and that every inode a
// builder hands out is one it was sized for.
func TestSlabChunk(t *testing.T) {
	if got := slabChunk * unsafe.Sizeof(inode{}); got > 512 {
		t.Fatalf("slabChunk × Sizeof(inode{}) = %d B, want <= 512", got)
	}
	b := New().newBuilder(14, 2, 0, 0, 0, time.Unix(0, 0))
	var chunks []int
	for i := 0; i < 14; i++ {
		kind := KindFile
		if i < 2 {
			kind = KindDir
		}
		if n := b.alloc(kind, 0o644); n.kind() != kind || n.isDir() != (n.dir() != nil) {
			t.Fatalf("inode %d: kind %v, dir %p", i, n.kind(), n.dir())
		}
		if len(b.nodes) == 1 { // the inode began a chunk
			chunks = append(chunks, cap(b.nodes))
		}
	}
	if fmt.Sprint(chunks) != "[10 4]" || b.left != 0 {
		t.Fatalf("a 14-inode tree took chunks %v with %d left, want [10 4] and 0", chunks, b.left)
	}
}

// TestAllocDirLookup pins the read side of the trie: lookups at every
// depth and a full iteration allocate nothing. Dynamic cross-check of
// the //yancvet:hotalloc annotations on get / iter / next.
func TestAllocDirLookup(t *testing.T) {
	for _, n := range []int{14, 2_000, 100_000} {
		ents := make([]dirEnt, n)
		for i := range ents {
			ents[i] = testEnt(fmt.Sprintf("c%06d", i), &inode{})
		}
		root := newDir(ents)
		sort.Slice(ents, func(i, j int) bool { return nameOf(ents[i].name) < nameOf(ents[j].name) })
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < n; i += 1 + n/97 {
				if _, ok := root.get(nameOf(ents[i].name)); !ok {
					t.Fatalf("%s missing", nameOf(ents[i].name))
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

// FuzzDirTrie decodes its input into a run of trie operations checked
// against a map[string]*inode. The first byte picks the hash: hashName
// or one of the degenerate three. Each later triple is one operation —
// put, del, get or a full iteration, by the first byte — on the name the
// other two pick: one of 96 keys at one of twelve lengths from 1 to 300
// bytes, so the names' blobs carry one- and two-byte length prefixes
// alike; the first 256 triples count. Every operation checks the lookup
// of its name, an iteration checks every entry and the structure, and a
// root captured halfway must still equal its model at the end: nodes
// are immutable after publish.
func FuzzDirTrie(f *testing.F) {
	hashes := []func(string) uint32{hashName, hashAllCollide, hashFourValues, hashLowBitsCollide}
	lengths := []int{1, 2, 7, 8, 31, 126, 127, 128, 129, 200, 299, 300}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		defer func(old func(string) uint32) { dirHash = old }(dirHash)
		dirHash = hashes[int(prog[0])%len(hashes)]
		prog = prog[1:]
		name := func(key, length byte) string {
			k := strconv.Itoa(int(key) % 96)
			return (k + "." + strings.Repeat(k, 300))[:lengths[int(length)%len(lengths)]]
		}
		var root, oldRoot *dirNode
		model := map[string]*inode{}
		var oldModel map[string]*inode
		ops := min(len(prog)/3, 256) // past a few hundred names, more ops only re-check the same sizes
		for op := 0; op < ops; op++ {
			code, key := prog[3*op]%4, name(prog[3*op+1], prog[3*op+2])
			switch code {
			case 0:
				c := &inode{ino: uint64(op)}
				root = root.put(testName(key), c)
				model[key] = c
			case 1:
				before := root
				root = root.del(key)
				if _, had := model[key]; !had && root != before {
					t.Fatalf("op %d: deleting absent %q built a new root", op, key)
				}
				delete(model, key)
			case 3:
				checkDirModel(t, root, model)
			}
			if got, ok := root.get(key); got != model[key] || ok != (model[key] != nil) {
				t.Fatalf("op %d: get(%q) = %p, %v; model has %p", op, key, got, ok, model[key])
			}
			if op == ops/2 {
				oldRoot, oldModel = root, maps.Clone(model)
			}
		}
		checkDirModel(t, root, model)
		checkDirModel(t, oldRoot, oldModel)
	})
}
