package vfs

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// A regular file's content is published as one pointer (inode.data) to a
// blob: the body's length as a uvarint, then the body, immutable from the
// moment it is published. A blob is its own allocation or lies inside a
// larger one (a WriteTree arena, which its blobs keep alive together).
// Nil is the empty file; no blob has an empty body. This file is the only
// one that knows the layout.

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

// bodyKey returns the body of blob p as a string that shares its bytes:
// the intern pool's key, which costs nothing because a blob never changes.
func bodyKey(p *byte) string {
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
