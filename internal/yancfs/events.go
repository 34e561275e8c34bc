package yancfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
)

// The packet-in data path (§3.5) is zero-copy and batched:
//
//   - Each message's files (switch, buffer_id, in_port, reason, total_len,
//     data) are built ONCE, as a vfs.FileSet no directory holds, and
//     attached to every subscriber buffer with Tx.AttachFileSet: each
//     buffer gets its own message directory, and every one of them holds
//     the same six file inodes. The payload block exists once regardless
//     of subscriber count; the file inode's nlink is its reference count
//     and the block is reclaimed when the last subscriber removes its
//     message directory.
//   - DeliverPacketInBatch amortizes one tree write lock and one
//     watch-dispatch drain over a whole burst of packet-ins.
//   - The subscriber list per region is cached: it is rebuilt only when a
//     directory event on <region>/events (or a synchronous semantics hook)
//     marks it stale, not ReadDir'd per packet.
//   - Buffers are bounded (SetEventBufferDepth): a full buffer drops its
//     oldest quarter and writes an "overflow" marker file holding the
//     cumulative drop count, mirroring the watch-overflow semantics, so
//     one stuck application cannot grow without bound or wedge delivery.
//
// Lock order: the delivery bookkeeping mutex (eventState.mu) nests strictly
// inside the vfs tree lock — semantics hooks and the delivery transaction
// take it while the tree is locked. Code holding eventState.mu must never
// call back into the file system.

// OverflowMarker is the file written into a buffer that hit its depth
// bound; its content is the cumulative number of messages dropped from
// that buffer (the event-buffer analog of the watch Overflow event).
const OverflowMarker = "overflow"

// DefaultEventBufferDepth bounds the pending messages per subscriber
// buffer when SetEventBufferDepth was not called.
const DefaultEventBufferDepth = 1024

const msgPrefix = "pktin-"

// batchBuckets is the number of power-of-two batch-size histogram buckets
// (bucket i counts batches of size <= 2^i).
const batchBuckets = 17

// eventSeq numbers delivered events so message directory names are unique
// and ordered across the process.
var eventSeq atomic.Uint64

// appStats is the live per-buffer accounting, shared between the cached
// subscriber list and the ev.apps registry.
type appStats struct {
	delivered atomic.Uint64
	drops     atomic.Uint64
	depth     atomic.Int64
}

// subRef pairs a buffer path with its stats in the cached subscriber list.
type subRef struct {
	path  string
	ref   vfs.DirRef // pre-resolved buffer dir; revalidated per use
	stats *appStats
}

// regionSubs caches one region's subscriber buffers. stale flips on any
// structural change under <region>/events — synchronously via the events
// directory's semantics hooks, and as a backstop via w (which also
// catches hook-less paths like rename).
type regionSubs struct {
	w     *vfs.Watch
	stale atomic.Bool
	bufs  []subRef // guarded by eventState.mu
}

// payloadRef tracks one message's outstanding subscriber links so
// /.proc/events can prove blocks are reclaimed when the count hits zero.
type payloadRef struct {
	links int
	bytes int
}

// eventState is the FS's packet-in delivery state. The mutex guards the
// maps and cached slices; counters are atomics so snapshot reads never
// block delivery. It nests inside the vfs tree lock (see the lock-order
// note above).
type eventState struct {
	mu      sync.Mutex
	regions map[string]*regionSubs
	apps    map[string]*appStats   // buffer path -> live stats
	refs    map[uint64]*payloadRef // msg seq -> outstanding links

	depthCfg atomic.Int64

	msgs        atomic.Uint64
	deliveries  atomic.Uint64
	batches     atomic.Uint64
	drops       atomic.Uint64
	copiedBytes atomic.Uint64
	linkedBytes atomic.Uint64
	blocksLive  atomic.Int64
	bytesLive   atomic.Int64
	rebuilds    atomic.Uint64
	batchHist   [batchBuckets]atomic.Uint64
}

// SetEventBufferDepth bounds the pending messages per subscriber buffer;
// n <= 0 restores DefaultEventBufferDepth. When a delivery finds a buffer
// at the bound it drops that buffer's oldest quarter (plus room for the
// incoming burst) and refreshes the buffer's overflow marker.
func (y *FS) SetEventBufferDepth(n int) { y.ev.depthCfg.Store(int64(n)) }

func (y *FS) eventDepth() int {
	if d := y.ev.depthCfg.Load(); d > 0 {
		return int(d)
	}
	return DefaultEventBufferDepth
}

// Subscribe creates a per-application private event buffer: a directory
// under <region>/events named after the app (§3.5: "each application
// interested in packet-in events creates a directory in the events/
// subdirectory"). It returns the buffer path and a watch delivering a
// Create event per message. Dot-prefixed names are reserved: they are
// hidden from Subscribers.
func Subscribe(p *vfs.Proc, region, app string) (string, *vfs.Watch, error) {
	if app == "" || strings.HasPrefix(app, ".") {
		return "", nil, fmt.Errorf("yancfs: subscribe %q: %w", app, vfs.ErrInvalid)
	}
	buf := vfs.Join(region, DirEvents, app)
	if !p.Exists(buf) {
		if err := p.Mkdir(buf, 0o755); err != nil {
			return "", nil, err
		}
	}
	w, err := p.AddWatch(buf, vfs.OpCreate)
	if err != nil {
		return "", nil, err
	}
	return buf, w, nil
}

// Subscribers lists the event buffer paths in a region, skipping
// dot-named entries.
func Subscribers(p *vfs.Proc, region string) ([]string, error) {
	dir := vfs.Join(region, DirEvents)
	entries, err := p.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name, ".") {
			out = append(out, vfs.Join(dir, e.Name))
		}
	}
	return out, nil
}

// subscribers returns the region's cached subscriber list, rebuilding it
// only when marked stale. Never called with eventState.mu held; the vfs
// reads here run outside it.
func (y *FS) subscribers(region string) ([]subRef, error) {
	y.ev.mu.Lock()
	if y.ev.regions == nil {
		y.ev.regions = make(map[string]*regionSubs)
	}
	rs := y.ev.regions[region]
	y.ev.mu.Unlock()
	if rs == nil {
		// First delivery into this region: install the invalidation watch
		// before the first listing so nothing between them is missed.
		w, err := y.root.AddWatch(vfs.Join(region, DirEvents),
			vfs.OpCreate|vfs.OpRemove|vfs.OpRename)
		if err != nil {
			return nil, err
		}
		rs = &regionSubs{w: w}
		rs.stale.Store(true)
		y.ev.mu.Lock()
		if cur := y.ev.regions[region]; cur != nil {
			rs = cur
			y.ev.mu.Unlock()
			w.Close()
		} else {
			y.ev.regions[region] = rs
			y.ev.mu.Unlock()
		}
	}
	// Drain the invalidation watch without blocking: any structural event
	// under events/ since the last delivery invalidates the cache. The
	// semantics hooks invalidate synchronously as well, so a Subscribe
	// that returned before this call is always visible even though watch
	// dispatch is asynchronous.
drain:
	for {
		select {
		case _, ok := <-rs.w.C:
			rs.stale.Store(true)
			if !ok {
				break drain
			}
		default:
			break drain
		}
	}
	if rs.stale.CompareAndSwap(true, false) {
		names, err := Subscribers(y.root, region)
		if err != nil {
			rs.stale.Store(true)
			y.ev.mu.Lock()
			delete(y.ev.regions, region)
			y.ev.mu.Unlock()
			rs.w.Close()
			return nil, err
		}
		// Resolve buffer dir handles before taking eventState.mu: DirRef
		// acquires the tree lock, and eventState.mu must only ever nest
		// inside it (the semantics hooks hold the tree write lock when they
		// take ev.mu). Delivery then fans out through the handles with no
		// per-message path walks. A buffer removed between the listing and
		// here is skipped — its removal already re-marked the cache stale.
		bufs := make([]subRef, 0, len(names))
		for _, bp := range names {
			ref, err := y.root.DirRef(bp)
			if err != nil {
				continue
			}
			bufs = append(bufs, subRef{path: bp, ref: ref})
		}
		y.ev.mu.Lock()
		if y.ev.apps == nil {
			y.ev.apps = make(map[string]*appStats)
		}
		for i := range bufs {
			st := y.ev.apps[bufs[i].path]
			if st == nil {
				st = &appStats{}
				y.ev.apps[bufs[i].path] = st
			}
			bufs[i].stats = st
		}
		rs.bufs = bufs
		y.ev.mu.Unlock()
		y.ev.rebuilds.Add(1)
	}
	y.ev.mu.Lock()
	bufs := rs.bufs
	y.ev.mu.Unlock()
	return bufs, nil
}

// invalidateEvents marks the region cache owning eventsDir stale. Called
// from semantics hooks under the tree write lock — it must only touch
// eventState, never the file system.
func (y *FS) invalidateEvents(eventsDir string) {
	region := vfs.Dir(eventsDir)
	y.ev.mu.Lock()
	if rs := y.ev.regions[region]; rs != nil {
		rs.stale.Store(true)
	}
	y.ev.mu.Unlock()
}

// onEventBufferMkdir marks a new per-application event buffer: message
// directories removed from it feed the payload refcounts, and the
// subscriber cache is invalidated synchronously so a Subscribe is visible
// to the very next delivery.
func (y *FS) onEventBufferMkdir(tx *vfs.Tx, dir, name string) error {
	if err := tx.SetSemantics(vfs.Join(dir, name), &vfs.DirSemantics{
		RecursiveRmdir: true,
		OnRemove:       y.onEventMessageRemove,
	}); err != nil {
		return err
	}
	y.invalidateEvents(dir)
	return nil
}

// onEventBufferRemove runs when a buffer (or anything else) is removed
// from an events directory: drop the buffer's accounting and invalidate
// the cache.
func (y *FS) onEventBufferRemove(tx *vfs.Tx, dir, name string, kind vfs.NodeKind) {
	if kind == vfs.KindDir {
		y.ev.mu.Lock()
		delete(y.ev.apps, vfs.Join(dir, name))
		y.ev.mu.Unlock()
	}
	y.invalidateEvents(dir)
}

// onEventMessageRemove runs when a message directory leaves a subscriber
// buffer (consume, overflow drop, or buffer teardown — the recursive
// rmdir fires it per child). It decrements the payload block's link count
// and frees the accounting when the last link goes.
func (y *FS) onEventMessageRemove(tx *vfs.Tx, dir, name string, kind vfs.NodeKind) {
	if kind != vfs.KindDir {
		return
	}
	seq, ok := parseMsgSeq(name)
	if !ok {
		return
	}
	y.ev.mu.Lock()
	defer y.ev.mu.Unlock()
	ref := y.ev.refs[seq]
	if ref == nil {
		return
	}
	if st := y.ev.apps[dir]; st != nil {
		st.depth.Add(-1)
	}
	ref.links--
	if ref.links <= 0 {
		delete(y.ev.refs, seq)
		y.ev.blocksLive.Add(-1)
		y.ev.bytesLive.Add(-int64(ref.bytes))
	}
}

// PacketInEvent is the parsed form of a packet-in message directory.
type PacketInEvent struct {
	Switch   string
	BufferID uint32
	InPort   uint32
	Reason   uint8
	TotalLen uint16
	Data     []byte
}

// DeliverPacketIn writes a packet-in message into every subscriber buffer
// in the region, concurrently visible to all of them ("our current design
// concurrently feeds packet-in messages to all applications interested in
// such events"). It is the single-message form of DeliverPacketInBatch.
func (y *FS) DeliverPacketIn(region, switchName string, pi *openflow.PacketIn) error {
	return y.DeliverPacketInBatch(region, switchName, []*openflow.PacketIn{pi})
}

// DeliverPacketInBatch delivers a burst of packet-in messages under one
// transaction and one watch-dispatch drain. Each message is built once —
// one file set of immutable 0444 files — and attached to every subscriber
// buffer, so the payload is copied once no matter how many applications
// subscribe. The write is transactional: an application never observes a
// half-written message.
func (y *FS) DeliverPacketInBatch(region, switchName string, pis []*openflow.PacketIn) error {
	if len(pis) == 0 {
		return nil
	}
	region = vfs.Clean(region)
	subs, err := y.subscribers(region)
	if err != nil {
		return err
	}
	y.ev.batches.Add(1)
	y.observeBatch(len(pis))
	if len(subs) == 0 {
		return nil
	}
	maxDepth := y.eventDepth()
	swLine := []byte(switchName + "\n")
	return y.vfs.WithTx(func(tx *vfs.Tx) error {
		// Each message queues one Create per subscriber; reserving up
		// front keeps the critical section free of slice growth.
		tx.ReserveEvents(len(pis) * len(subs))
		// Make room for the whole burst up front: one listing per
		// overflowing buffer per batch, not one per message.
		for _, sub := range subs {
			if int(sub.stats.depth.Load())+len(pis) > maxDepth {
				y.dropOldest(tx, sub, maxDepth, len(pis))
			}
		}
		var nb, ni, nr, nt [24]byte
		refs := make([]vfs.DirRef, len(subs))
		for i, sub := range subs {
			refs[i] = sub.ref
		}
		files := make([]vfs.FileData, 6)
		for _, pi := range pis {
			seq := eventSeq.Add(1)
			num := func(buf *[24]byte, v uint64) []byte {
				return append(strconv.AppendUint(buf[:0], v, 10), '\n')
			}
			files[0] = vfs.FileData{Name: "switch", Data: swLine}
			files[1] = vfs.FileData{Name: "buffer_id", Data: num(&nb, uint64(pi.BufferID))}
			files[2] = vfs.FileData{Name: "in_port", Data: num(&ni, uint64(pi.InPort))}
			files[3] = vfs.FileData{Name: "reason", Data: num(&nr, uint64(pi.Reason))}
			files[4] = vfs.FileData{Name: "total_len", Data: num(&nt, uint64(pi.TotalLen))}
			files[5] = vfs.FileData{Name: "data", Data: pi.Data}
			copied := 0
			for _, f := range files {
				copied += len(f.Data)
			}
			set, err := tx.NewFileSet(files, 0o444, 0, 0)
			if err != nil {
				return err
			}
			links := 0
			// A detached destination buffer is skipped inside the attach:
			// the subscriber was removed since the cache was read.
			err = tx.AttachFileSet(set, refs, msgName(seq), 0o755, 0, 0, func(i int) {
				subs[i].stats.delivered.Add(1)
				subs[i].stats.depth.Add(1)
				links++
			})
			if err != nil {
				return err
			}
			y.ev.msgs.Add(1)
			y.ev.copiedBytes.Add(uint64(copied))
			if links > 0 {
				y.ev.deliveries.Add(uint64(links))
				y.ev.linkedBytes.Add(uint64(copied) * uint64(links))
				y.ev.mu.Lock()
				if y.ev.refs == nil {
					y.ev.refs = make(map[uint64]*payloadRef)
				}
				y.ev.refs[seq] = &payloadRef{links: links, bytes: copied}
				y.ev.mu.Unlock()
				y.ev.blocksLive.Add(1)
				y.ev.bytesLive.Add(int64(copied))
			}
		}
		return nil
	})
}

// dropOldest enforces the buffer depth bound: remove the oldest quarter
// of the buffer's messages plus room for the incoming burst (amortizing
// the listing over many deliveries) and refresh the overflow marker with
// the cumulative drop count.
func (y *FS) dropOldest(tx *vfs.Tx, sub subRef, maxDepth, incoming int) {
	dir, err := tx.OpenDir(sub.path)
	if err != nil {
		return
	}
	seqs := make([]uint64, 0, dir.Len())
	for e, ok := dir.Next(); ok; e, ok = dir.Next() {
		if s, ok := parseMsgSeq(e.Name); ok {
			seqs = append(seqs, s)
		}
	}
	keep := maxDepth - maxDepth/4
	if keep > maxDepth-incoming {
		keep = maxDepth - incoming
	}
	if keep >= maxDepth {
		keep = maxDepth - 1
	}
	if keep < 0 {
		keep = 0
	}
	drop := len(seqs) - keep
	if drop <= 0 {
		return
	}
	// Sorting the parsed sequence numbers beats a sorted ReadDir: integer
	// compares, and only the doomed prefix gets its name rebuilt.
	slices.Sort(seqs)
	doomed := make([]string, drop)
	for i, s := range seqs[:drop] {
		doomed[i] = msgName(s)
	}
	removed, err := tx.RemoveChildren(sub.path, doomed)
	if err != nil || removed == 0 {
		return
	}
	total := sub.stats.drops.Add(uint64(removed))
	y.ev.drops.Add(uint64(removed))
	marker := append(strconv.AppendUint(nil, total, 10), '\n')
	//yancvet:allow errdrop best-effort marker; failing to note the overflow must not abort the drop path
	_ = tx.WriteFile(vfs.Join(sub.path, OverflowMarker), marker, 0o644, 0, 0)
}

func (y *FS) observeBatch(n int) {
	idx := bits.Len(uint(n - 1)) // batch of 2^i lands in bucket i
	if idx >= batchBuckets {
		idx = batchBuckets - 1
	}
	y.ev.batchHist[idx].Add(1)
}

// EventStats is a snapshot of the packet-in delivery counters, published
// as /.proc/events/stats.
type EventStats struct {
	Messages      uint64 // packet-ins built
	Deliveries    uint64 // message x subscriber links created
	Batches       uint64 // DeliverPacketInBatch calls
	Drops         uint64 // messages dropped by the depth bound
	CopiedBytes   uint64 // bytes written once, into each message's file set
	LinkedBytes   uint64 // bytes made visible via links, no copy
	BlocksLive    int64  // messages with outstanding links
	BytesLive     int64  // bytes held by live blocks
	CacheRebuilds uint64 // subscriber-cache invalidation rebuilds
	BatchSizes    [batchBuckets]uint64
}

// EventStats snapshots the delivery counters.
func (y *FS) EventStats() EventStats {
	s := EventStats{
		Messages:      y.ev.msgs.Load(),
		Deliveries:    y.ev.deliveries.Load(),
		Batches:       y.ev.batches.Load(),
		Drops:         y.ev.drops.Load(),
		CopiedBytes:   y.ev.copiedBytes.Load(),
		LinkedBytes:   y.ev.linkedBytes.Load(),
		BlocksLive:    y.ev.blocksLive.Load(),
		BytesLive:     y.ev.bytesLive.Load(),
		CacheRebuilds: y.ev.rebuilds.Load(),
	}
	for i := range s.BatchSizes {
		s.BatchSizes[i] = y.ev.batchHist[i].Load()
	}
	return s
}

// AppEventInfo is one subscriber buffer's accounting row.
type AppEventInfo struct {
	Path      string
	Delivered uint64
	Drops     uint64
	Depth     int64
}

// EventApps snapshots per-buffer delivery accounting, sorted by path.
// Buffers whose directory no longer exists (e.g. renamed away) are pruned
// from the registry here, lazily.
func (y *FS) EventApps() []AppEventInfo {
	y.ev.mu.Lock()
	paths := make([]string, 0, len(y.ev.apps))
	for p := range y.ev.apps {
		paths = append(paths, p)
	}
	y.ev.mu.Unlock()
	sort.Strings(paths)
	out := make([]AppEventInfo, 0, len(paths))
	for _, p := range paths {
		if !y.root.Exists(p) {
			y.ev.mu.Lock()
			delete(y.ev.apps, p)
			y.ev.mu.Unlock()
			continue
		}
		y.ev.mu.Lock()
		st := y.ev.apps[p]
		y.ev.mu.Unlock()
		if st == nil {
			continue
		}
		out = append(out, AppEventInfo{
			Path:      p,
			Delivered: st.delivered.Load(),
			Drops:     st.drops.Load(),
			Depth:     st.depth.Load(),
		})
	}
	return out
}

// msgName formats "pktin-<seq>", the sequence zero-padded to 12 digits so
// lexicographic order equals numeric, into one allocation; every
// subscriber's message directory for one message has the same name.
func msgName(seq uint64) string {
	var b [len(msgPrefix) + 12]byte
	copy(b[:], msgPrefix)
	if !encode12(b[len(msgPrefix):], seq) {
		return msgPrefix + strconv.FormatUint(seq, 10)
	}
	return string(b[:])
}

// encode12 writes v right-aligned, zero-padded into the 12-byte dst,
// reporting false when v needs more than 12 digits.
func encode12(dst []byte, v uint64) bool {
	for i := 11; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
	return v == 0
}

// parseMsgSeq extracts the sequence number from a "pktin-…" name.
func parseMsgSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, msgPrefix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(msgPrefix):], 10, 64)
	return v, err == nil
}

// ReadPacketIn parses a packet-in message directory. The directory is
// resolved once; each of its six files is then read relative to it. The
// header files are read shared and parsed in place; Data is the caller's
// own copy.
func ReadPacketIn(p *vfs.Proc, msgPath string) (PacketInEvent, error) {
	var ev PacketInEvent
	ref, err := p.DirRef(msgPath)
	if err != nil {
		return ev, err
	}
	sw, err := p.ReadFileSharedAt(ref, "switch")
	if err != nil {
		return ev, err
	}
	ev.Switch = string(bytes.TrimSpace(sw))
	read32 := func(name string) uint32 {
		b, err := p.ReadFileSharedAt(ref, name)
		if err != nil {
			return 0
		}
		v, _ := strconv.ParseUint(string(bytes.TrimSpace(b)), 10, 32)
		return uint32(v)
	}
	ev.BufferID = read32("buffer_id")
	ev.InPort = read32("in_port")
	ev.Reason = uint8(read32("reason"))
	ev.TotalLen = uint16(read32("total_len"))
	if ev.Data, err = p.ReadFileAt(ref, "data"); err != nil {
		return ev, err
	}
	return ev, nil
}

// ConsumePacketIn reads and removes a message from the buffer, the
// typical handle-then-delete pattern of an event-driven app. Removing the
// message directory drops the application's links on the shared payload
// block; the block itself is reclaimed when the last subscriber consumes.
// A subscriber buffer's rmdir is recursive, so one Remove takes the whole
// message; RemoveAll is the fallback for a directory outside a buffer.
func ConsumePacketIn(p *vfs.Proc, msgPath string) (PacketInEvent, error) {
	ev, err := ReadPacketIn(p, msgPath)
	if err != nil {
		return ev, err
	}
	err = p.Remove(msgPath)
	if errors.Is(err, vfs.ErrNotEmpty) {
		err = p.RemoveAll(msgPath)
	}
	return ev, err
}

// PendingEvents lists message directories in a buffer in delivery order.
// The overflow marker and other plain files are not messages.
func PendingEvents(p *vfs.Proc, bufPath string) ([]string, error) {
	entries, err := p.ReadDir(bufPath)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, vfs.Join(bufPath, e.Name))
		}
	}
	return out, nil
}
