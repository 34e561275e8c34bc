package snappkg

import "unsafe"

// record is what a data word points at when it holds more than a blob:
// a tag byte of 0, the content, and the attribute map. Once a data word
// holds it, it is published.
type record struct {
	tag     byte
	content *byte
	xattrs  map[string][]byte
}

// recordOf returns the record data word p points at, nil for a blob.
func recordOf(p *byte) *record {
	if p == nil || *p != 0 {
		return nil
	}
	return (*record)(unsafe.Pointer(p))
}

// Editing a loaded record in place races every reader that loaded it,
// and a content writer's swap from it keeps the old map.
func (n *inode) setXattrsInPlace(m map[string][]byte) {
	if r := recordOf(n.data.Load()); r != nil {
		r.xattrs = m // want "mutated after publish"
	}
}

// A fresh record is its builder's to fill until the swap publishes it.
func (n *inode) swapXattrs(m map[string][]byte) bool {
	old := n.data.Load()
	r := &record{}
	if cur := recordOf(old); cur != nil {
		r.content = cur.content
	} else {
		r.content = old
	}
	r.xattrs = m
	return n.data.CompareAndSwap(old, (*byte)(unsafe.Pointer(r)))
}
