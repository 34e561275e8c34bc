package vfs

import (
	"math/bits"
	"slices"
	"strings"
)

// A directory's children are one persistent hash trie: every node is
// immutable after publish and a mutation copies only the nodes on the
// path from the root to the entry it touches — O(log₃₂ n) small nodes
// whatever the directory size, where a copy-on-write map pays the whole
// directory. The root pointer is what a directory publishes (setKids)
// and what lock-free readers walk.
//
// Two node shapes share the dirNode type:
//
//   - a leaf (bitmap == 0) holds up to dirLeafMax entries inline, sorted
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
const (
	dirFanoutBits = 5
	dirFanout     = 1 << dirFanoutBits
	dirLeafMax    = dirFanout
	dirHashBits   = 32
	dirMaxDepth   = (dirHashBits+dirFanoutBits-1)/dirFanoutBits + 1 // branches, then a leaf
)

// dirEnt is one directory entry.
type dirEnt struct {
	name string
	c    *inode
}

// dirNode is one trie node. Immutable once reachable from a published
// root: the snapshotpub vet rule rejects any write through one.
type dirNode struct {
	bitmap uint32     // branch: occupied slots; 0 marks a leaf
	n      int32      // entries in this subtree
	ents   []dirEnt   // leaf: entries sorted by name
	kids   []*dirNode // branch: one child per set bitmap bit, in slot order
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

// child returns the position in kids of the child under bit.
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
		if ents[m].name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ents) && ents[lo].name == name
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
		d = d.kids[d.child(bit)]
	}
	if i, ok := findEnt(d.ents, name); ok {
		return d.ents[i].c, true
	}
	return nil, false
}

// put returns a trie that maps name to c and otherwise equals d, which
// is left untouched. The copied path is the product of the operation:
// its allocations are deliberate, also under a hotalloc root (fan-out
// links one new name per subscriber).
func (d *dirNode) put(name string, c *inode) *dirNode {
	return d.with(dirHash(name), 0, name, c)
}

func (d *dirNode) with(h uint32, shift uint, name string, c *inode) *dirNode {
	if d == nil {
		return &dirNode{n: 1, ents: []dirEnt{{name, c}}} //yancvet:alloc path copy
	}
	if d.bitmap == 0 {
		i, found := findEnt(d.ents, name)
		if !found {
			return buildDir(entsWith(d.ents, i, dirEnt{name, c}), shift)
		}
		nd := &dirNode{n: d.n, ents: slices.Clone(d.ents)} //yancvet:alloc path copy
		nd.ents[i].c = c
		return nd
	}
	bit := slot(h, shift)
	pos := d.child(bit)
	nd := &dirNode{bitmap: d.bitmap | bit, n: d.n} //yancvet:alloc path copy
	if d.bitmap&bit == 0 {
		nd.kids = kidsWith(d.kids, pos, (*dirNode)(nil).with(h, shift+dirFanoutBits, name, c))
		nd.n++
		return nd
	}
	nd.kids = slices.Clone(d.kids) //yancvet:alloc path copy
	nd.kids[pos] = d.kids[pos].with(h, shift+dirFanoutBits, name, c)
	nd.n += nd.kids[pos].n - d.kids[pos].n
	return nd
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
		i, found := findEnt(d.ents, name)
		if !found {
			return d
		}
		if len(d.ents) == 1 {
			return nil
		}
		//yancvet:alloc the path copy that publishes the directory without the entry
		return &dirNode{n: d.n - 1, ents: slices.Concat(d.ents[:i], d.ents[i+1:])}
	}
	bit := slot(h, shift)
	if d.bitmap&bit == 0 {
		return d
	}
	pos := d.child(bit)
	kid := d.kids[pos].without(h, shift+dirFanoutBits, name)
	if kid == d.kids[pos] {
		return d
	}
	nd := &dirNode{bitmap: d.bitmap, n: d.n - 1} //yancvet:alloc path copy, as above
	if kid == nil {
		nd.bitmap &^= bit
		nd.kids = slices.Concat(d.kids[:pos], d.kids[pos+1:]) //yancvet:alloc path copy
	} else {
		nd.kids = slices.Clone(d.kids) //yancvet:alloc path copy
		nd.kids[pos] = kid
	}
	if nd.n > dirLeafMax/2 {
		return nd
	}
	// Few enough entries to be one leaf again. A branch always holds
	// more than dirLeafMax/2 entries, so this is never the empty trie.
	ents := nd.appendEnts(make([]dirEnt, 0, nd.n)) //yancvet:alloc the collapsed leaf, once per shrink past the threshold
	sortEnts(ents)
	return &dirNode{n: nd.n, ents: ents} //yancvet:alloc as above
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
	slices.SortStableFunc(ents, func(a, b dirEnt) int { return strings.Compare(a.name, b.name) })
}

// newDir builds a trie from entries in any order, taking ownership of
// ents. A repeated name keeps its last entry, as repeated puts would.
func newDir(ents []dirEnt) *dirNode {
	sortEnts(ents)
	out := ents[:0]
	for i, e := range ents {
		if i+1 < len(ents) && ents[i+1].name == e.name {
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
		return &dirNode{n: int32(len(ents)), ents: ents} //yancvet:alloc the built node
	}
	var count [dirFanout]int
	for i := range ents {
		count[slotOf(dirHash(ents[i].name), shift)]++
	}
	var parts [dirFanout][]dirEnt
	for i, c := range count {
		if c > 0 {
			parts[i] = make([]dirEnt, 0, c) //yancvet:alloc the built leaves' entries
		}
	}
	for _, e := range ents {
		i := slotOf(dirHash(e.name), shift)
		parts[i] = append(parts[i], e)
	}
	nd := &dirNode{n: int32(len(ents))} //yancvet:alloc the built node
	for i, part := range parts {
		if len(part) > 0 {
			nd.bitmap |= 1 << i
			nd.kids = append(nd.kids, buildDir(part, shift+dirFanoutBits))
		}
	}
	return nd
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
	return DirEntry{Name: e.name, Kind: e.c.kind(), Ino: e.c.ino}, true
}

// next is Next without loading the entry's inode.
//
//yancvet:hotalloc
func (it *DirIter) next() (dirEnt, bool) {
	for it.top > 0 {
		f := &it.stack[it.top-1]
		switch {
		case f.d.bitmap == 0 && f.i < len(f.d.ents):
			f.i++
			return f.d.ents[f.i-1], true
		case f.i < len(f.d.kids):
			f.i++
			it.stack[it.top].d, it.stack[it.top].i = f.d.kids[f.i-1], 0
			it.top++
		default:
			it.top--
		}
	}
	return dirEnt{}, false
}
