package vfs

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// An inode's data word (inode.data) has one view per kind, and a node's
// kind never changes. This file is the only one that knows the layouts.
//
//   - A directory's word points at its dirState, stored once at creation
//     (setDir) and never replaced.
//   - A regular file's word is its content: one pointer to a blob — the
//     body's length as a uvarint, then the body — immutable from the
//     moment it is published. A blob is its own allocation or lies
//     inside a larger one (a WriteTree arena, which its blobs keep alive
//     together). Nil is the empty file; no blob has an empty body.
//   - A symlink's word is its target as a blob, stored at creation and
//     never replaced; nil is the empty target.
//   - A file with a synthetic provider or xattrs, or a symlink with
//     xattrs, points at a record instead: a tag byte of 0, then the
//     content (the target) as a blob pointer, the provider and the map.
//     A blob begins with the uvarint of a length of at least 1, which is
//     never 0, so the first byte, which bodyOf reads anyway, tells the
//     two apart. A record is immutable once published: an edit of any of
//     its fields — a content write too — builds a new record and swaps it
//     in by compare-and-swap (storeContent, storeSynth, swapXattrs), so
//     no writer loses another's field. A node goes back to a bare blob
//     when its record would hold neither a provider nor an attribute.
//
// Names are blobs too: a directory entry's name and a directory's own
// (dirState.name) are blobs of this encoding, never empty, which nameOf
// reads back as strings. A trie node's pointer word has two views as
// the data word does, chosen by the node's bitmap instead of a kind
// (dirtrie.go).

// record is a file's or a symlink's data word when it carries more than
// a blob (see above). No flow pays for one: yanc's synthetic files are
// per switch, per port and under /.proc, and the two synthetic counter
// files in a flow are one file set that all its creator's flows share.
type record struct {
	tag     byte  // always 0: no blob begins with it
	content *byte // the content, or a symlink's target, as a blob
	synth   *Synthetic
	xattrs  map[string][]byte
}

// recordOf returns the record that p, a file's or a symlink's data word
// as loaded, points at; nil when p is a bare blob or nil. What it returns
// is published: read it, never write into it.
func recordOf(p *byte) *record {
	if p == nil || *p != 0 {
		return nil
	}
	return (*record)(unsafe.Pointer(p))
}

// blobIn returns the blob a file's or a symlink's data word p holds: p
// itself, or its record's.
func blobIn(p *byte) *byte {
	if r := recordOf(p); r != nil {
		return r.content
	}
	return p
}

// fieldsOf returns what the data word p holds beside its blob: its
// record's provider and map, or nothing for a bare blob.
func fieldsOf(p *byte) (*Synthetic, map[string][]byte) {
	if r := recordOf(p); r != nil {
		return r.synth, r.xattrs
	}
	return nil, nil
}

// wordOf returns the data word that holds blob c beside synth and
// xattrs: c itself when there are neither, else a new record.
func wordOf(c *byte, synth *Synthetic, xattrs map[string][]byte) *byte {
	if synth == nil && len(xattrs) == 0 {
		return c
	}
	//yancvet:alloc a record is built only for a file with a provider or xattrs, off the flow path
	return (*byte)(unsafe.Pointer(&record{content: c, synth: synth, xattrs: xattrs}))
}

// content returns a file's published bytes, which nothing writes into:
// the caller may keep them, and must not write into them either. Their
// capacity is their length (bodyOf). Only a regular file has content: a
// directory's word is never decoded as a blob, and a symlink's target is
// not its content.
func (n *inode) content() []byte {
	if n.kind() != KindFile {
		return nil
	}
	return bodyOf(blobIn(n.data.Load()))
}

// swapContent is a content writer's compare-and-swap: it replaces old,
// the word as the writer loaded it, with one holding blob c and old's
// other fields, and reports whether no other writer got there first. A
// bare blob is swapped for c without allocating.
func (n *inode) swapContent(old, c *byte) bool {
	synth, xattrs := fieldsOf(old)
	return n.data.CompareAndSwap(old, wordOf(c, synth, xattrs))
}

// storeContent publishes blob c as file n's content, keeping whatever
// n's record holds beside it: the swap of a whole-content write or of a
// truncate to empty.
func (n *inode) storeContent(c *byte) {
	for !n.swapContent(n.data.Load(), c) {
	}
}

// setTarget stores symlink n's target, once, at creation.
func (n *inode) setTarget(target string) {
	if target == "" {
		return
	}
	p, body := newBlob(len(target))
	copy(body, target)
	n.data.Store(p)
}

// target returns a symlink's target ("" for any other kind), a string
// that shares the blob's bytes.
func (n *inode) target() string {
	if n.kind() != KindSymlink {
		return ""
	}
	b := bodyOf(blobIn(n.data.Load()))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// loadSynth returns a regular file's synthetic provider (nil for none,
// and for any other kind), lock-free.
func (n *inode) loadSynth() *Synthetic {
	if n.kind() != KindFile {
		return nil
	}
	synth, _ := fieldsOf(n.data.Load())
	return synth
}

// storeSynth attaches synth to regular file n, keeping its content and
// xattrs.
func (n *inode) storeSynth(synth *Synthetic) {
	for {
		old := n.data.Load()
		_, xattrs := fieldsOf(old)
		if n.data.CompareAndSwap(old, wordOf(blobIn(old), synth, xattrs)) {
			return
		}
	}
}

// xattrs returns the node's attribute map (nil when it has none), which
// nothing writes into.
func (n *inode) xattrs() map[string][]byte {
	m, _ := n.loadXattrs()
	return m
}

// loadXattrs returns the node's attribute map and where it was loaded
// from — a directory's map pointer, or a file's or a symlink's data
// word — for swapXattrs.
func (n *inode) loadXattrs() (map[string][]byte, unsafe.Pointer) {
	if d := n.dir(); d != nil {
		p := d.xattrs.Load()
		if p == nil {
			return nil, nil
		}
		return *p, unsafe.Pointer(p)
	}
	p := n.data.Load()
	_, m := fieldsOf(p)
	return m, unsafe.Pointer(p)
}

// swapXattrs publishes m as the node's attribute map in place of the one
// loadXattrs loaded from old, keeping a file's content and provider, and
// reports whether no other writer got there first.
func (n *inode) swapXattrs(old unsafe.Pointer, m map[string][]byte) bool {
	if d := n.dir(); d != nil {
		return d.xattrs.CompareAndSwap((*map[string][]byte)(old), &m)
	}
	p := (*byte)(old)
	synth, _ := fieldsOf(p)
	return n.data.CompareAndSwap(p, wordOf(blobIn(p), synth, m))
}

// setDir makes d the state of n, a directory being created.
func (n *inode) setDir(d *dirState) { n.data.Store((*byte)(unsafe.Pointer(d))) }

// dir returns a directory's state; nil for any other kind.
func (n *inode) dir() *dirState {
	if !n.isDir() {
		return nil
	}
	return n.dirKnown()
}

// dirKnown is dir for a caller that has already checked that n is a
// directory: the walk's hot path, which would otherwise test the kind
// twice per hop.
func (n *inode) dirKnown() *dirState { return (*dirState)(unsafe.Pointer(n.data.Load())) }

// blobSize returns the bytes the blob of an n-byte body takes.
func blobSize(n int) int {
	if n == 0 {
		return 0
	}
	return (bits.Len(uint(n))+6)/7 + n // a uvarint holds 7 bits a byte
}

// bodyOf returns the body of blob p (nil for nil). Its capacity is its
// length, so an append to it makes new bytes instead of writing over
// whatever follows the blob in its arena.
func bodyOf(p *byte) []byte {
	if p == nil {
		return nil
	}
	var n uint
	k := 0
	for shift := uint(0); ; shift += 7 {
		c := *(*byte)(unsafe.Add(unsafe.Pointer(p), k))
		k++
		n |= uint(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	return unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(p), k)), n)
}

// nameOf returns the body of blob p (not nil) as a string that shares
// its bytes, which costs nothing because a blob never changes: a
// directory entry's name, and the key the intern pools file a blob
// under. A name shorter than 128 bytes, a one-byte prefix, is decoded
// inline: a lookup reads one name per step of its binary search.
//
//yancvet:hotalloc
func nameOf(p *byte) string {
	if n := *p; n < 0x80 {
		return unsafe.String((*byte)(unsafe.Add(unsafe.Pointer(p), 1)), n)
	}
	b := bodyOf(p)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendBlob appends the blob of body (not empty) to arena and returns
// the grown arena and the new blob. Sized with blobSize, the arena never
// moves; if it did, blobs already cut from it would stay valid in the
// old array.
func appendBlob(arena, body []byte) ([]byte, *byte) {
	at := len(arena)
	arena = binary.AppendUvarint(arena, uint64(len(body)))
	arena = append(arena, body...)
	return arena, &arena[at]
}

// newBlob allocates the blob of an n-byte body (n > 0) and returns it
// with its body for the caller to fill before publishing.
//
//yancvet:hotalloc
func newBlob(n int) (*byte, []byte) {
	b := make([]byte, blobSize(n)) //yancvet:alloc published bytes are never written again: new content is a new blob
	k := binary.PutUvarint(b, uint64(n))
	return &b[0], b[k:]
}

// blobOf returns a new blob holding a copy of data; nil when it is empty.
//
//yancvet:hotalloc
func blobOf(data []byte) *byte {
	if len(data) == 0 {
		return nil
	}
	p, body := newBlob(len(data))
	copy(body, data)
	return p
}
