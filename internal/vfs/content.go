package vfs

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// An inode's data word (inode.data) has two views, chosen by its kind,
// which never changes: a directory has no content and a regular file no
// dirState, so one word serves both. This file is the only one that
// knows either layout.
//
// A directory's word points at its dirState, stored once at creation
// (setDir) and never replaced. A regular file's content is published in
// it as one pointer to a blob: the body's length as a uvarint, then the
// body, immutable from the moment it is published. A blob is its own
// allocation or lies inside a larger one (a WriteTree arena, which its
// blobs keep alive together). Nil is the empty file; no blob has an
// empty body. A symlink's word stays nil.
//
// Names are blobs too: a directory entry's name and a directory's own
// (dirState.name) are blobs of this encoding, never empty, which nameOf
// reads back as strings. A trie node's pointer word has two views as
// the data word does, chosen by the node's bitmap instead of a kind
// (dirtrie.go).

// content returns a file's published bytes, which nothing writes into:
// the caller may keep them, and must not write into them either. Their
// capacity is their length (bodyOf). A directory has none: its word is
// never decoded as a blob.
func (n *inode) content() []byte {
	if n.isDir() {
		return nil
	}
	return bodyOf(n.data.Load())
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
