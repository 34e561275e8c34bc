// Deliberate-bug fixture for the hotalloc analyzer: every `want` line is
// a heap allocation inside a //yancvet:hotalloc hot path. The shapes
// mirror the real tree — renderers, drain loops, mailbox scheduling —
// with the allocation bug planted.
package hotfix

import (
	"fmt"

	"hotallocfixture/render"
)

type conn struct {
	buf   []byte
	names render.Names[string]
}

// drain is an annotated root; helper below is pulled into the hot set as
// a same-package callee and checked under this root.
//
//yancvet:hotalloc
func (c *conn) drain(names []string) {
	for _, n := range names {
		c.buf = render.AppendName(c.buf, n) // AllocFree fact imported: clean
		c.names.Add(n)                      // the fact of a generic method: clean
		c.buf = helper(c.buf, n)
	}
}

// helper is hot by reachability, not annotation.
func helper(dst []byte, name string) []byte {
	line := "name=" + name // want "string concatenation allocates on hot path"
	return append(dst, line...)
}

// describeVia calls an in-module function in another package that does
// NOT carry the AllocFree fact.
//
//yancvet:hotalloc
func describeVia(name string) string {
	return render.Format(name) // want "not marked //yancvet:hotalloc"
}

//yancvet:hotalloc
func renderStats(n int, out chan<- string) {
	counts := make(map[string]int) // want "make.map."
	counts["pkt"] = n
	buf := make([]byte, n) // want "make with non-constant size"
	out <- string(buf)     // want "conversion copies on hot path"
}

//yancvet:hotalloc
func describe(c *conn) string {
	return fmt.Sprintf("conn %p", c) // want "fmt call allocates on hot path"
}

type logger interface{ log(v interface{}) }

//yancvet:hotalloc
func record(l logger, seq uint64) {
	l.log(seq) // want "interface boxing allocates on hot path"
}

//yancvet:hotalloc
func newBuf() []byte {
	b := make([]byte, 0, 64) // want "make.* escapes"
	return b
}

//yancvet:hotalloc
func collect(names []string) int {
	var all []byte
	for _, n := range names {
		all = append(all, n...) // want "append to a fresh nil slice"
	}
	return len(all)
}

//yancvet:hotalloc
func spawnPerPacket(f func()) {
	go f() // want "goroutine launch allocates on hot path"
}

type ring struct{}

func (r *ring) drainOnce() {}

//yancvet:hotalloc
func schedule(r *ring, submit func(func())) {
	submit(r.drainOnce) // want "method value allocates a closure"
}

var hooks []func()

//yancvet:hotalloc
func install(n int) {
	f := func() { _ = n } // want "closure allocates on hot path"
	hooks = append(hooks, f)
}

type stats struct{ n int }

var latest *stats

//yancvet:hotalloc
func publish(n int) {
	s := &stats{n: n} // want "&composite literal escapes"
	latest = s
}

// adopt builds a table that outlives the call: the allocation is the
// product, annotated as deliberate — no diagnostic.
//
//yancvet:hotalloc
func adopt() map[string]int {
	m := make(map[string]int) //yancvet:alloc the table is the product, built once per reload
	return m
}
