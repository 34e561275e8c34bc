package vfs

import (
	"math/bits"
	"slices"
	"strings"
	"unsafe"
)

// A directory's children are one persistent hash trie: every node is
// immutable after publish and a mutation copies only the nodes on the
// path from the root to the entry it touches — O(log₃₂ n) small nodes
// whatever the directory size, where a copy-on-write map pays the whole
// directory. The root pointer is what a directory publishes (setKids)
// and what lock-free readers walk.
//
// Two node shapes share the dirNode type, 16 bytes: a bitmap, a count
// and one pointer, whose two views the bitmap chooses (leaf, branch):
//
//   - a leaf (bitmap == 0) points at up to dirLeafMax entries, sorted
//     by name. Every small directory — a 14-file flow directory, a
//     6-file packet-in message — is a single leaf: one node, a binary
//     search per lookup, and a listing that needs no sort.
//   - a branch holds one child per set bitmap bit, indexed by five bits
//     of the name's hash per level. A leaf that outgrows dirLeafMax
//     splits into a branch; a branch that shrinks to dirLeafMax/2
//     entries collapses back into a leaf (the gap is hysteresis, so an
//     insert/delete pair at the boundary does not rebuild each time).
//
// Once the 32 hash bits are used up a leaf can no longer split and
// simply grows: names with fully colliding hashes stay correct (the
// leaf is still sorted and binary-searched), only slower.
//
// An entry is two words, a name and an inode. The name is a blob, the
// encoding file contents use (content.go), almost always the intern
// pool's (intern.go): a flow's 13 entries take 208 bytes, where a string
// header per name took 312. nameOf reads one back as a string without
// copying it, which is how lookups, listings and event paths see names.
const (
	dirFanoutBits = 5
	dirFanout     = 1 << dirFanoutBits
	dirLeafMax    = dirFanout
	dirHashBits   = 32
	dirMaxDepth   = (dirHashBits+dirFanoutBits-1)/dirFanoutBits + 1 // branches, then a leaf
)

// dirEnt is one directory entry, two words: the entry's name, as a blob
// (content.go) that is never empty and never changes once stored —
// usually the intern pool's, shared by every directory that has the
// name — and the inode it names.
type dirEnt struct {
	name *byte
	c    *inode
}

// dirNode is one trie node, one word and one pointer. Immutable once
// reachable from a published root: the snapshotpub vet rule rejects any
// write through one or through what its accessors return. The pointer
// has two views, chosen by bitmap the way an inode's data word has two
// chosen by kind: a leaf's first dirEnt, n of them, or a branch's first
// child, one per set bitmap bit. Only leaf and branch, and the two
// constructors, know either.
type dirNode struct {
	bitmap uint32         // branch: occupied slots; 0 marks a leaf
	n      int32          // entries in this subtree
	p      unsafe.Pointer // leaf: entries sorted by name; branch: children in slot order
}

// newLeaf returns the leaf holding ents (at least one), which it takes
// ownership of.
func newLeaf(ents []dirEnt) *dirNode {
	return &dirNode{n: int32(len(ents)), p: unsafe.Pointer(unsafe.SliceData(ents))} //yancvet:alloc the node a path copy or a build makes
}

// newBranch returns the branch over kids, one per set bit of bitmap,
// holding n entries in all; it takes ownership of kids.
func newBranch(bitmap uint32, n int32, kids []*dirNode) *dirNode {
	return &dirNode{bitmap: bitmap, n: n, p: unsafe.Pointer(unsafe.SliceData(kids))} //yancvet:alloc as above
}

// leaf returns a leaf's entries. Their capacity is their length, as
// bodyOf's is, so an append to them makes a new array instead of
// writing past them.
func (d *dirNode) leaf() []dirEnt { return unsafe.Slice((*dirEnt)(d.p), d.n) }

// branch returns a branch's children, capacity equal to length too.
func (d *dirNode) branch() []*dirNode {
	return unsafe.Slice((**dirNode)(d.p), bits.OnesCount32(d.bitmap))
}

// dirHash is the name hash the trie branches on. It is deterministic —
// the same tree has the same shape (and the same footprint) in every
// run — and a variable only so tests can substitute a degenerate hash
// that forces collisions; set it before any concurrent fs use.
var dirHash = hashName

// hashName is FNV-1a with a murmur3 finalizer: FNV alone leaves the low
// bits of short, similar names ("c000123") poorly mixed, and the trie
// consumes the hash five bits at a time from the bottom.
func hashName(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// slotOf returns the branch slot hash h selects at depth shift, and
// slot that slot's bitmap bit.
func slotOf(h uint32, shift uint) uint32 { return h >> shift & (dirFanout - 1) }
func slot(h uint32, shift uint) uint32   { return 1 << slotOf(h, shift) }

// child returns the position in branch() of the child under bit.
func (d *dirNode) child(bit uint32) int {
	return bits.OnesCount32(d.bitmap & (bit - 1))
}

// entsWith returns a copy of ents, sized exactly, with e inserted at i.
func entsWith(ents []dirEnt, i int, e dirEnt) []dirEnt {
	out := make([]dirEnt, len(ents)+1) //yancvet:alloc path copy
	copy(out, ents[:i])
	out[i] = e
	copy(out[i+1:], ents[i:])
	return out
}

// kidsWith is entsWith for a branch's children.
func kidsWith(kids []*dirNode, i int, k *dirNode) []*dirNode {
	out := make([]*dirNode, len(kids)+1) //yancvet:alloc path copy
	copy(out, kids[:i])
	out[i] = k
	copy(out[i+1:], kids[i:])
	return out
}

// findEnt binary-searches sorted leaf entries for name, returning the
// position it occupies or would be inserted at.
func findEnt(ents []dirEnt, name string) (int, bool) {
	lo, hi := 0, len(ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if nameOf(ents[m].name) < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ents) && nameOf(ents[lo].name) == name
}

// count returns the number of entries (nil-safe: nil is the empty trie).
func (d *dirNode) count() int {
	if d == nil {
		return 0
	}
	return int(d.n)
}

// get finds one name. Nil-safe and allocation-free.
//
//yancvet:hotalloc
func (d *dirNode) get(name string) (*inode, bool) {
	if d == nil {
		return nil, false
	}
	h := dirHash(name)
	for shift := uint(0); d.bitmap != 0; shift += dirFanoutBits {
		bit := slot(h, shift)
		if d.bitmap&bit == 0 {
			return nil, false
		}
		d = d.branch()[d.child(bit)]
	}
	ents := d.leaf()
	if i, ok := findEnt(ents, name); ok {
		return ents[i].c, true
	}
	return nil, false
}

// put returns a trie that maps name, a name blob, to c and otherwise
// equals d, which is left untouched. The copied path is the product of
// the operation: its allocations are deliberate, also under a hotalloc
// root (fan-out links one new name per subscriber).
func (d *dirNode) put(name *byte, c *inode) *dirNode {
	key := nameOf(name)
	return d.with(dirHash(key), 0, key, dirEnt{name, c})
}

// with is put at depth shift, for e, whose name is key and hashes to h.
func (d *dirNode) with(h uint32, shift uint, key string, e dirEnt) *dirNode {
	if d == nil {
		return newLeaf([]dirEnt{e}) //yancvet:alloc path copy
	}
	if d.bitmap == 0 {
		ents := d.leaf()
		i, found := findEnt(ents, key)
		if !found {
			return buildDir(entsWith(ents, i, e), shift)
		}
		out := slices.Clone(ents) //yancvet:alloc path copy
		out[i].c = e.c
		return newLeaf(out)
	}
	bit := slot(h, shift)
	pos := d.child(bit)
	kids := d.branch()
	if d.bitmap&bit == 0 {
		return newBranch(d.bitmap|bit, d.n+1, kidsWith(kids, pos, (*dirNode)(nil).with(h, shift+dirFanoutBits, key, e)))
	}
	out := slices.Clone(kids) //yancvet:alloc path copy
	out[pos] = kids[pos].with(h, shift+dirFanoutBits, key, e)
	return newBranch(d.bitmap, d.n+out[pos].n-kids[pos].n, out)
}

// del returns d without name: d itself when name is absent, nil when
// nothing is left.
func (d *dirNode) del(name string) *dirNode {
	return d.without(dirHash(name), 0, name)
}

func (d *dirNode) without(h uint32, shift uint, name string) *dirNode {
	if d == nil {
		return nil
	}
	if d.bitmap == 0 {
		ents := d.leaf()
		i, found := findEnt(ents, name)
		if !found {
			return d
		}
		if len(ents) == 1 {
			return nil
		}
		//yancvet:alloc the path copy that publishes the directory without the entry
		return newLeaf(slices.Concat(ents[:i], ents[i+1:]))
	}
	bit := slot(h, shift)
	if d.bitmap&bit == 0 {
		return d
	}
	pos := d.child(bit)
	kids := d.branch()
	kid := kids[pos].without(h, shift+dirFanoutBits, name)
	if kid == kids[pos] {
		return d
	}
	if n := d.n - 1; n <= dirLeafMax/2 {
		// Few enough entries to be one leaf again. A branch always holds
		// more than dirLeafMax/2 entries, so this is never the empty trie.
		ents := make([]dirEnt, 0, n) //yancvet:alloc the collapsed leaf, once per shrink past the threshold
		for it := d.iter(); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			if nameOf(e.name) != name {
				ents = append(ents, e)
			}
		}
		sortEnts(ents)
		return newLeaf(ents)
	}
	if kid == nil {
		//yancvet:alloc path copy, as above
		return newBranch(d.bitmap&^bit, d.n-1, slices.Concat(kids[:pos], kids[pos+1:]))
	}
	out := slices.Clone(kids) //yancvet:alloc path copy
	out[pos] = kid
	return newBranch(d.bitmap, d.n-1, out)
}

// appendEnts appends every entry of d to dst, in iteration order.
func (d *dirNode) appendEnts(dst []dirEnt) []dirEnt {
	for it := d.iter(); ; {
		e, ok := it.next()
		if !ok {
			return dst
		}
		dst = append(dst, e)
	}
}

func sortEnts(ents []dirEnt) {
	//yancvet:alloc generic instantiation, not a heap allocation: the comparator captures nothing
	slices.SortStableFunc(ents, func(a, b dirEnt) int { return strings.Compare(nameOf(a.name), nameOf(b.name)) })
}

// newDir builds a trie from entries in any order, taking ownership of
// ents. A repeated name keeps its last entry, as repeated puts would.
func newDir(ents []dirEnt) *dirNode {
	sortEnts(ents)
	out := ents[:0]
	for i, e := range ents {
		if i+1 < len(ents) && nameOf(ents[i+1].name) == nameOf(e.name) {
			continue
		}
		out = append(out, e)
	}
	return buildDir(out, 0)
}

// buildDir returns the subtree at depth shift for ents, which must be
// sorted, duplicate-free and owned by the callee: a leaf while they fit
// (or no hash bits are left to split on), otherwise a branch over the
// entries partitioned by their next five hash bits. The partition is
// stable, so every leaf below stays sorted.
func buildDir(ents []dirEnt, shift uint) *dirNode {
	if len(ents) == 0 {
		return nil
	}
	if len(ents) <= dirLeafMax || shift >= dirHashBits {
		return newLeaf(ents)
	}
	var count [dirFanout]int
	var bitmap uint32
	for i := range ents {
		s := slotOf(dirHash(nameOf(ents[i].name)), shift)
		count[s]++
		bitmap |= 1 << s
	}
	var parts [dirFanout][]dirEnt
	for i, c := range count {
		if c > 0 {
			parts[i] = make([]dirEnt, 0, c) //yancvet:alloc the built leaves' entries
		}
	}
	for _, e := range ents {
		i := slotOf(dirHash(nameOf(e.name)), shift)
		parts[i] = append(parts[i], e)
	}
	kids := make([]*dirNode, 0, bits.OnesCount32(bitmap)) //yancvet:alloc the built node's children
	for _, part := range parts {
		if len(part) > 0 {
			kids = append(kids, buildDir(part, shift+dirFanoutBits))
		}
	}
	return newBranch(bitmap, int32(len(ents)), kids)
}

// DirIter walks the entries of one published directory snapshot, the
// children trie root a directory had when the iterator was opened
// (Proc.OpenDirAt, Tx.OpenDir): depth-first with an explicit stack, so a
// walk takes no lock, copies nothing and allocates nothing. The nodes it
// holds are immutable, so entries added or removed after it was opened —
// by its own caller too — are not seen, and each entry of the snapshot
// comes exactly once. Entries of one leaf come in name order; across
// leaves the order is the hash's, so a caller that wants name order
// sorts, the way ls sorts what getdents(2) hands it.
type DirIter struct {
	stack [dirMaxDepth]struct {
		d *dirNode
		i int
	}
	top int
}

// iter starts an iteration over d (nil-safe).
//
//yancvet:hotalloc
func (d *dirNode) iter() DirIter {
	var it DirIter
	if d != nil {
		it.stack[0].d = d
		it.top = 1
	}
	return it
}

// Len returns the number of entries in the snapshot, whatever has been
// walked of it.
func (it *DirIter) Len() int { return it.stack[0].d.count() }

// Next returns the next entry, or false when the walk is done.
//
//yancvet:hotalloc
func (it *DirIter) Next() (DirEntry, bool) {
	e, ok := it.next()
	if !ok {
		return DirEntry{}, false
	}
	return DirEntry{Name: nameOf(e.name), Kind: e.c.kind(), Ino: e.c.ino}, true
}

// next is Next without loading the entry's inode.
//
//yancvet:hotalloc
func (it *DirIter) next() (dirEnt, bool) {
	for it.top > 0 {
		f := &it.stack[it.top-1]
		if d := f.d; d.bitmap == 0 {
			if f.i < int(d.n) {
				f.i++
				return d.leaf()[f.i-1], true
			}
		} else if kids := d.branch(); f.i < len(kids) {
			f.i++
			it.stack[it.top].d, it.stack[it.top].i = kids[f.i-1], 0
			it.top++
			continue
		}
		it.top--
	}
	return dirEnt{}, false
}
