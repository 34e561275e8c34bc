package vfs

import (
	"sync"
	"sync/atomic"
)

// Interning pools for the names and small payloads that repeat across
// giant control trees. A network with 10⁶ flow directories stores the
// same child names (match.in_port, action.output, version, ...) and the
// same small attribute values ("5\n", "in_port=1", ...) over and over;
// without deduplication those copies dominate resident memory long
// before the inodes themselves do. Both pools are bounded: once full
// they stop admitting new entries and callers fall back to private
// copies, so adversarial unique-key workloads cannot grow them. The name
// pool also admits a name only on its second sighting (namesSeen): the
// names a control tree repeats are its schema, while a flow's own name
// is seen once, and a first-come pool would fill with those one-off
// names and never take a schema name seen after them.
//
// A pool never gives an entry back, so once full it stays full, and its
// full flag lets a miss skip the write lock: without it every write of a
// value the pool cannot hold — unique addresses and ports fill it quickly
// — would serialize all writers on one global lock.
//
// Interned values are shared across inodes and are therefore immutable —
// as every file's published content is (see inode.data). Both pools hold
// blobs (content.go), each keyed by its own body: the data pool holds
// payloads in their published form, so an inode adopts one with a
// pointer store, and the name pool holds names in the form a directory
// entry stores them, so an entry is a pointer to the pool's blob.

const (
	// internNameCap bounds the name pool. Component-name vocabularies
	// are tiny (a few dozen per object schema); 4096 leaves room for
	// many applications without letting unique names bloat the pool.
	internNameCap = 4096
	// internDataCap bounds the payload pool, and internDataMax the size
	// of an admissible payload: small single-value attribute files are
	// where duplication pays; big payloads are rarely identical.
	internDataCap = 4096
	internDataMax = 64
)

var names = struct {
	mu   sync.RWMutex
	m    map[string]*byte
	full atomic.Bool // len(m) reached internNameCap
}{m: make(map[string]*byte, 256)}

// namesSeen records first sightings of the names the pool does not hold:
// one slot per name hash modulo its size, holding the hash (0 is an empty
// slot: no hash is stored as 0). A name whose hash is already in its slot
// is seen a second time and admitted. A later name may overwrite a slot,
// so a name seen twice far apart may not be admitted; the table is fixed,
// 32 KB, and never grows or evicts. The hash is fixed too, as the
// trie's is (dirHash): the same names pool the same way in every run.
var namesSeen [internNameCap]atomic.Uint64

// secondSighting reports whether name was seen before, and records it
// as seen when it was not.
func secondSighting(name string) bool {
	// FNV-1a, 64 bits, with murmur3's 64-bit finalizer.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	h |= 1
	slot := &namesSeen[h%internNameCap]
	if slot.Load() == h {
		return true
	}
	slot.Store(h)
	return false
}

// internName returns a name blob holding name, which must not be empty:
// the pool's, so that repeated component names share one blob, or a
// private copy on a name's first sighting and once the pool is full.
// Either way — and as important — the result never aliases a larger
// path string: resolution hands out names as substrings of the caller's
// full path, and storing one in an entry would pin the whole path in
// memory for the entry's lifetime.
func internName(name string) *byte {
	names.mu.RLock()
	c, ok := names.m[name]
	names.mu.RUnlock()
	if ok {
		return c
	}
	c, body := newBlob(len(name))
	copy(body, name)
	if names.full.Load() || !secondSighting(name) {
		return c
	}
	names.mu.Lock()
	if have, ok := names.m[name]; ok {
		c = have
	} else if len(names.m) < internNameCap {
		names.m[nameOf(c)] = c
	} else {
		names.full.Store(true)
	}
	names.mu.Unlock()
	return c
}

var payloads = struct {
	mu   sync.RWMutex
	m    map[string]*byte
	full atomic.Bool // len(m) reached internDataCap
}{m: make(map[string]*byte, 256)}

// internBytes returns the canonical published content equal to b when b
// is small enough to pool and the pool admits it. ok=false means the
// caller must publish its own copy. The returned content is shared
// across inodes and, like all published content, never written into.
func internBytes(b []byte) (data *byte, ok bool) {
	if len(b) == 0 || len(b) > internDataMax {
		return nil, false
	}
	payloads.mu.RLock()
	c, ok := payloads.m[string(b)] //yancvet:alloc none: the compiler looks a map up by converted bytes without copying them
	payloads.mu.RUnlock()
	if ok || payloads.full.Load() {
		return c, ok
	}
	payloads.mu.Lock()
	defer payloads.mu.Unlock()
	if c, ok := payloads.m[string(b)]; ok { //yancvet:alloc none, as above
		return c, true
	}
	if len(payloads.m) >= internDataCap {
		payloads.full.Store(true)
		return nil, false
	}
	c = blobOf(b)
	payloads.m[nameOf(c)] = c
	return c, true
}
