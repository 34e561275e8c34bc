package yancfs

import (
	"fmt"
	"runtime"
	"testing"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
)

func testPacketIn(n int) *openflow.PacketIn {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	return &openflow.PacketIn{
		BufferID: 7, InPort: 2, Reason: openflow.ReasonNoMatch,
		TotalLen: uint16(n), Data: data,
	}
}

// TestEventBufferLifecycle walks a buffer through the full arc: subscribe,
// receive, consume (rmdir of the message directory), unsubscribe, and
// re-subscribe under the same name — each stage must leave the next one
// working.
func TestEventBufferLifecycle(t *testing.T) {
	y := newFS(t)
	p := y.Root()

	buf, w, err := Subscribe(p, "/", "app")
	if err != nil {
		t.Fatal(err)
	}
	if err := y.DeliverPacketIn("/", "sw1", testPacketIn(32)); err != nil {
		t.Fatal(err)
	}
	msgs, err := PendingEvents(p, buf)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("pending = %v %v", msgs, err)
	}
	// Consume = rmdir the message directory.
	if _, err := ConsumePacketIn(p, msgs[0]); err != nil {
		t.Fatal(err)
	}
	if left, _ := PendingEvents(p, buf); len(left) != 0 {
		t.Fatalf("consume left %v", left)
	}

	// Unsubscribe: tear down the buffer (messages still queued and all).
	if err := y.DeliverPacketIn("/", "sw1", testPacketIn(32)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := p.Remove(buf); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}

	// A delivery with no subscribers must not fail.
	if err := y.DeliverPacketIn("/", "sw1", testPacketIn(32)); err != nil {
		t.Fatal(err)
	}

	// Re-subscribe under the same name: a fresh, empty buffer that
	// receives again.
	buf2, w2, err := Subscribe(p, "/", "app")
	if err != nil {
		t.Fatalf("re-subscribe: %v", err)
	}
	defer w2.Close()
	if buf2 != buf {
		t.Fatalf("re-subscribe path = %q, want %q", buf2, buf)
	}
	if left, _ := PendingEvents(p, buf2); len(left) != 0 {
		t.Fatalf("stale messages in fresh buffer: %v", left)
	}
	if err := y.DeliverPacketIn("/", "sw1", testPacketIn(32)); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := PendingEvents(p, buf2); len(msgs) != 1 {
		t.Fatalf("fresh buffer pending = %v", msgs)
	}
}

// TestEventBlocksReclaimed proves shared payload blocks are not stranded:
// once every subscriber has consumed (or been torn down), the refcount
// hits zero and the live-block accounting drains.
func TestEventBlocksReclaimed(t *testing.T) {
	y := newFS(t)
	p := y.Root()

	var bufs []string
	for i := 0; i < 3; i++ {
		buf, w, err := Subscribe(p, "/", fmt.Sprintf("app%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		bufs = append(bufs, buf)
	}
	for i := 0; i < 5; i++ {
		if err := y.DeliverPacketIn("/", "sw1", testPacketIn(128)); err != nil {
			t.Fatal(err)
		}
	}
	s := y.EventStats()
	if s.BlocksLive != 5 || s.BytesLive == 0 {
		t.Fatalf("after delivery: blocks=%d bytes=%d", s.BlocksLive, s.BytesLive)
	}
	if s.Deliveries != 15 {
		t.Fatalf("deliveries = %d, want 15", s.Deliveries)
	}

	// App 0 and 1 consume message-by-message; app 2 is torn down whole.
	for _, buf := range bufs[:2] {
		msgs, _ := PendingEvents(p, buf)
		for _, m := range msgs {
			if _, err := ConsumePacketIn(p, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s = y.EventStats(); s.BlocksLive != 5 {
		t.Fatalf("blocks live after partial consume = %d, want 5", s.BlocksLive)
	}
	if err := p.Remove(bufs[2]); err != nil {
		t.Fatal(err)
	}
	if s = y.EventStats(); s.BlocksLive != 0 || s.BytesLive != 0 {
		t.Fatalf("stranded blocks: blocks=%d bytes=%d", s.BlocksLive, s.BytesLive)
	}
}

// TestEventOverflowDropOldest pins the backpressure policy: a buffer at
// its depth bound sheds its oldest quarter, gains an overflow marker, and
// newest messages survive.
func TestEventOverflowDropOldest(t *testing.T) {
	y := newFS(t)
	y.SetEventBufferDepth(16)
	p := y.Root()
	buf, w, err := Subscribe(p, "/", "slow")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 40; i++ {
		if err := y.DeliverPacketIn("/", "sw1", testPacketIn(16)); err != nil {
			t.Fatal(err)
		}
	}
	msgs, _ := PendingEvents(p, buf)
	if len(msgs) > 16 {
		t.Fatalf("depth bound not enforced: %d pending", len(msgs))
	}
	if !p.Exists(buf + "/" + OverflowMarker) {
		t.Fatal("no overflow marker")
	}
	s := y.EventStats()
	if s.Drops == 0 {
		t.Fatal("no drops counted")
	}
	apps := y.EventApps()
	if len(apps) != 1 || apps[0].Drops == 0 || apps[0].Depth != int64(len(msgs)) {
		t.Fatalf("per-app accounting = %+v (pending %d)", apps, len(msgs))
	}
}

// TestPacketInDeliveryAllocs pins the zero-copy property: bytes allocated
// per delivered message must not scale with the subscriber count, because
// the payload is written once into the spool and hard-linked everywhere
// else. A copying fan-out would allocate ~subscribers x payload bytes.
func TestPacketInDeliveryAllocs(t *testing.T) {
	const payload = 32 << 10
	const msgs = 64
	perMsgBytes := func(subs int) uint64 {
		y := newFS(t)
		p := y.Root()
		for i := 0; i < subs; i++ {
			_, w, err := Subscribe(p, "/", fmt.Sprintf("app%d", i))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
		}
		pi := testPacketIn(payload)
		// Warm up caches (subscriber list, spool dir) outside the window.
		if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < msgs; i++ {
			if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / msgs
	}
	one := perMsgBytes(1)
	sixteen := perMsgBytes(16)
	// One payload copy (the spool write) plus per-subscriber link state is
	// fine; sixteen payload copies is the regression this guards against
	// (16x32KiB = 512KiB per message). Link state under lock-free
	// resolution (DESIGN.md §8) is a directory inode plus the path copy
	// that inserts it into the buffer's children trie — ~0.5KiB per
	// link here, well under one payload.
	limit := one + 16<<10
	if sixteen > limit {
		t.Fatalf("per-message bytes grew with subscribers: 1 sub = %d, 16 subs = %d (limit %d)",
			one, sixteen, limit)
	}

	// Allocation-count pin: linking a message into an extra buffer costs a
	// constant handful of small allocations — the directory inode, the
	// event, and the trie nodes on the copied path — never a fresh set
	// of payload files. Eight per extra
	// subscriber is headroom over the ~7 measured; a copying fan-out
	// needs ~20+ (six file inodes with data copies plus directory and
	// snapshot plumbing). This is the dynamic half of the contract:
	// yancvet's hotalloc analyzer (DESIGN.md §11) statically verifies the
	// //yancvet:hotalloc-annotated feeders, and this pin bounds the path
	// the static rule deliberately exempts. Keep both.
	perMsgAllocs := func(subs int) float64 {
		y := newFS(t)
		p := y.Root()
		for i := 0; i < subs; i++ {
			_, w, err := Subscribe(p, "/", fmt.Sprintf("app%d", i))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
		}
		pi := testPacketIn(256)
		if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1 := perMsgAllocs(1)
	a16 := perMsgAllocs(16)
	if a16 > a1+15*8 {
		t.Fatalf("allocs per message: 1 sub = %.0f, 16 subs = %.0f (want <= %.0f)",
			a1, a16, a1+15*8)
	}

	// E15's property, counted: subscribers cost links, not copies. The same
	// 960-message run (below the 1024-message bound, so nothing is dropped)
	// copies the same bytes at 1, 8 and 16 subscribers and links
	// subscribers × those bytes.
	var copied uint64
	for _, subs := range []int{1, 8, 16} {
		y := newFS(t)
		for i := 0; i < subs; i++ {
			_, w, err := Subscribe(y.Root(), "/", fmt.Sprintf("app%d", i))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
		}
		pi := testPacketIn(128)
		for i := 0; i < 960; i++ {
			if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
				t.Fatal(err)
			}
		}
		s := y.EventStats()
		if copied == 0 {
			copied = s.CopiedBytes
		}
		if copied < 960*128 || s.CopiedBytes != copied || s.LinkedBytes != uint64(subs)*copied {
			t.Fatalf("%d subscribers: copied %d B, linked %d B; want copied %d (≥ 960 payloads) and linked %d×copied",
				subs, s.CopiedBytes, s.LinkedBytes, copied, subs)
		}
	}
}

// TestConsumePacketInCallCount pins what consuming one message costs: the
// message directory is resolved once (3 lookups), each of its six files is
// one lookup in it, and one Remove (3 lookups) takes the whole directory.
func TestConsumePacketInCallCount(t *testing.T) {
	y := newFS(t)
	p := y.Root()
	buf, w, err := Subscribe(p, "/", "app")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	pi := testPacketIn(64)
	if err := y.DeliverPacketIn("/", "sw1", pi); err != nil {
		t.Fatal(err)
	}
	msgs, err := PendingEvents(p, buf)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("pending = %v %v", msgs, err)
	}
	before := y.VFS().Stats()
	ev, err := ConsumePacketIn(p, msgs[0])
	got := y.VFS().Stats().Sub(before)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Switch != "sw1" || ev.BufferID != pi.BufferID || ev.InPort != pi.InPort ||
		ev.Reason != pi.Reason || ev.TotalLen != pi.TotalLen || string(ev.Data) != string(pi.Data) {
		t.Errorf("event = %+v", ev)
	}
	want := vfs.OpStats{Lookups: 12, Opens: 6, Reads: 6, Removes: 1, Stats: 1}
	if got != want {
		t.Errorf("consume = %+v, want %+v", got, want)
	}
	if p.Exists(msgs[0]) {
		t.Error("message directory survived its consume")
	}
	if st := y.EventStats(); st.BlocksLive != 0 || st.BytesLive != 0 {
		t.Errorf("payload not reclaimed: %+v", st)
	}
}
