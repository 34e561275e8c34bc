package vfs

import (
	"strings"
	"sync"
)

// Interning pools for the strings and small payloads that repeat across
// giant control trees. A network with 10⁶ flow directories stores the
// same child names (match.in_port, action.output, version, ...) and the
// same small attribute values ("5\n", "in_port=1", ...) over and over;
// without deduplication those copies dominate resident memory long
// before the inodes themselves do. Both pools are bounded: once full
// they stop admitting new entries and callers fall back to private
// copies, so adversarial unique-key workloads cannot grow them.
//
// Interned values are shared across inodes and are therefore immutable;
// the data pool's users mark the owning inode dataShared and copy on
// write (see File.Write). Name strings are immutable in Go already, so
// sharing them needs no flag.

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
	mu sync.RWMutex
	m  map[string]string
}{m: make(map[string]string, 256)}

// internName returns a canonical string equal to name. Repeated
// component names collapse to one backing array, and — as important —
// the result never aliases a larger path string: resolution hands out
// names as substrings of the caller's full path, and storing one in an
// inode would pin the whole path in memory for the inode's lifetime.
func internName(name string) string {
	names.mu.RLock()
	c, ok := names.m[name]
	names.mu.RUnlock()
	if ok {
		return c
	}
	c = strings.Clone(name) //yancvet:alloc first sight of a name: it is pooled from here on
	names.mu.Lock()
	if have, ok := names.m[c]; ok {
		c = have
	} else if len(names.m) < internNameCap {
		names.m[c] = c
	}
	names.mu.Unlock()
	return c
}

var payloads = struct {
	mu sync.RWMutex
	m  map[string][]byte
}{m: make(map[string][]byte, 256)}

// internBytes returns a canonical shared slice equal to b when b is
// small enough to pool and the pool admits it. ok=false means the
// caller must keep its own copy. A returned slice is shared across
// inodes: the caller must mark the inode dataShared and never write
// into the slice (canonical slices are allocated with exact capacity,
// so even an append can never land inside one).
func internBytes(b []byte) (data []byte, ok bool) {
	if len(b) == 0 || len(b) > internDataMax {
		return nil, false
	}
	payloads.mu.RLock()
	c, ok := payloads.m[string(b)] //yancvet:alloc none: the compiler looks a map up by converted bytes without copying them
	payloads.mu.RUnlock()
	if ok {
		return c, true
	}
	payloads.mu.Lock()
	defer payloads.mu.Unlock()
	if c, ok := payloads.m[string(b)]; ok { //yancvet:alloc none, as above
		return c, true
	}
	if len(payloads.m) >= internDataCap {
		return nil, false
	}
	c = make([]byte, len(b)) //yancvet:alloc first sight of a payload: it is pooled from here on
	copy(c, b)
	payloads.m[string(c)] = c //yancvet:alloc the pool's key, once per distinct payload
	return c, true
}
