// Package procfs claims the last OS abstraction §5 of the paper leaves on
// the table: introspection of the controller itself through file I/O. It
// mounts a procfs-style metrics subtree (by convention /.proc, i.e.
// /net/.proc from outside) into the controller file system. Every metric
// is a synthetic read-only file, so the whole observability surface
// composes with what the repo already has — shell one-liners, dfs remote
// mounts, watches, and namespaced views all read it the same way they
// read switch state.
//
// DESIGN.md §7 is the list of the files under /.proc and what each one
// holds; the root package's TestProcMetricsLocalAndRemote checks that list
// against a running tree in both directions.
package procfs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"yanc/internal/dfs"
	"yanc/internal/libyanc"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// Dir is the root of the metrics subtree inside the controller FS.
const Dir = "/.proc"

// DriverDir is where the driver publishes per-switch telemetry
// (Driver.ProcDir is pointed here by yanc.NewController).
const DriverDir = Dir + "/driver"

// AppsDir is where namespace launches publish per-application accounting.
const AppsDir = Dir + "/apps"

// LoadDir is where load harnesses (cmd/yancload via benchutil.RunChurn)
// publish their live progress counters.
const LoadDir = Dir + "/load"

// LibyancDir is where a libyanc flow ring publishes its depth, batch,
// and stall telemetry (InstallLibyanc).
const LibyancDir = Dir + "/libyanc"

// Tree is the installed metrics subtree plus the registries of dynamic
// sources (dfs servers and mounts) it reports on.
type Tree struct {
	fs *vfs.FS

	mu       sync.Mutex
	servers  []*dfs.Server
	mounts   map[string]*dfs.Client
	replicas []*dfs.Replica
	events   *yancfs.FS
}

// Install creates the .proc hierarchy on fs and returns the Tree handle
// used to bind dynamic sources. Directories are 0555 and files 0444: the
// subtree is strictly read-only, even for root's file I/O (metrics change
// only through the system doing work).
func Install(fs *vfs.FS) (*Tree, error) {
	t := &Tree{fs: fs, mounts: make(map[string]*dfs.Client)}
	err := fs.WithTx(func(tx *vfs.Tx) error {
		for _, d := range []string{Dir, Dir + "/vfs", Dir + "/watch", DriverDir, Dir + "/dfs", AppsDir, Dir + "/events"} {
			if err := tx.MkdirAll(d, 0o555, 0, 0); err != nil {
				return err
			}
		}
		files := map[string]func() ([]byte, error){
			Dir + "/vfs/ops":              t.renderOps,
			Dir + "/vfs/contention":       t.renderContention,
			Dir + "/vfs/resolve_lockfree": t.renderResolveLockfree,
			Dir + "/vfs/resolve_fallback": t.renderResolveFallback,
			Dir + "/watch/queues":         t.renderWatchQueues,
			Dir + "/dfs/rpc":              t.renderDFSRPC,
			Dir + "/dfs/queue":            t.renderDFSQueue,
			Dir + "/dfs/reconnects":       t.renderDFSReconnects,
			Dir + "/dfs/replication":      t.renderDFSReplication,
			Dir + "/events/stats":         t.renderEventStats,
			Dir + "/events/batch":         t.renderEventBatch,
			Dir + "/events/apps":          t.renderEventApps,
		}
		for path, read := range files {
			read := read
			if err := tx.SetSynthetic(path, &vfs.Synthetic{Read: read}, 0o444, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("procfs: install: %w", err)
	}
	return t, nil
}

// InstallLoad mounts a single read-only synthetic at /.proc/load/progress
// whose content comes from read. Load harnesses call it so their live
// state is observable through the same file I/O as every other metric —
// a yancsh one-liner or a dfs remote mount can watch a churn run go by.
// It is independent of Install: a load rig does not need the full tree.
func InstallLoad(fs *vfs.FS, read func() ([]byte, error)) error {
	err := fs.WithTx(func(tx *vfs.Tx) error {
		if err := tx.MkdirAll(LoadDir, 0o555, 0, 0); err != nil {
			return err
		}
		return tx.SetSynthetic(LoadDir+"/progress", &vfs.Synthetic{Read: read}, 0o444, 0, 0)
	})
	if err != nil {
		return fmt.Errorf("procfs: install load: %w", err)
	}
	return nil
}

// InstallLibyanc mounts the flow-ring telemetry files under
// /.proc/libyanc: "ring" reports queue depth, backpressure stalls, and
// completion counts; "batch" reports drain/batch-size/latency counters.
// Like InstallLoad it is independent of Install — a bench rig that only
// drives the ring does not need the full tree.
func InstallLibyanc(fs *vfs.FS, r *libyanc.FlowRing) error {
	ring := func() ([]byte, error) {
		s := r.Stats()
		var b strings.Builder
		closed := 0
		if s.Closed {
			closed = 1
		}
		for _, row := range []struct {
			name string
			n    int64
		}{
			{"sq_len", int64(s.SQLen)}, {"sq_cap", int64(s.SQCap)},
			{"cq_len", int64(s.CQLen)}, {"in_flight", int64(s.InFlight)},
			{"submitted", int64(s.Submitted)}, {"completed", int64(s.Completed)},
			{"installed", int64(s.Installed)}, {"stalls", int64(s.Stalls)},
			{"closed", int64(closed)},
		} {
			fmt.Fprintf(&b, "%-10s %d\n", row.name, row.n)
		}
		return []byte(b.String()), nil
	}
	batch := func() ([]byte, error) {
		s := r.Stats()
		var avg, avgNs uint64
		if s.Drains > 0 {
			avg = s.Completed / s.Drains
			avgNs = s.DrainNanos / s.Drains
		}
		var b strings.Builder
		for _, row := range []struct {
			name string
			n    uint64
		}{
			{"drains", s.Drains}, {"batch_max", uint64(s.BatchMax)},
			{"batch_avg", avg}, {"drain_ns_total", s.DrainNanos},
			{"drain_ns_avg", avgNs},
		} {
			fmt.Fprintf(&b, "%-14s %d\n", row.name, row.n)
		}
		return []byte(b.String()), nil
	}
	err := fs.WithTx(func(tx *vfs.Tx) error {
		if err := tx.MkdirAll(LibyancDir, 0o555, 0, 0); err != nil {
			return err
		}
		if err := tx.SetSynthetic(LibyancDir+"/ring", &vfs.Synthetic{Read: ring}, 0o444, 0, 0); err != nil {
			return err
		}
		return tx.SetSynthetic(LibyancDir+"/batch", &vfs.Synthetic{Read: batch}, 0o444, 0, 0)
	})
	if err != nil {
		return fmt.Errorf("procfs: install libyanc: %w", err)
	}
	return nil
}

// BindDFSServer adds a dfs export whose request counters .proc/dfs/rpc
// reports.
func (t *Tree) BindDFSServer(s *dfs.Server) {
	t.mu.Lock()
	t.servers = append(t.servers, s)
	t.mu.Unlock()
}

// BindDFSClient adds a remote mount under the given name; its queue and
// reconnect state appear in .proc/dfs/{queue,reconnects}.
func (t *Tree) BindDFSClient(name string, c *dfs.Client) {
	t.mu.Lock()
	t.mounts[name] = c
	t.mu.Unlock()
}

// UnbindDFSClient removes a mount from the registry (after Close).
func (t *Tree) UnbindDFSClient(name string) {
	t.mu.Lock()
	delete(t.mounts, name)
	t.mu.Unlock()
}

// BindReplica adds a dfs replica whose consensus state (role, term,
// commit/applied indices, lag) .proc/dfs/replication reports.
func (t *Tree) BindReplica(r *dfs.Replica) {
	t.mu.Lock()
	t.replicas = append(t.replicas, r)
	t.mu.Unlock()
}

// BindEvents registers the controller file system whose packet-in
// delivery counters .proc/events reports on.
func (t *Tree) BindEvents(y *yancfs.FS) {
	t.mu.Lock()
	t.events = y
	t.mu.Unlock()
}

func (t *Tree) eventsFS() *yancfs.FS {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

func (t *Tree) renderEventStats() ([]byte, error) {
	y := t.eventsFS()
	if y == nil {
		return []byte("unbound\n"), nil
	}
	s := y.EventStats()
	var b strings.Builder
	for _, row := range []struct {
		name string
		n    int64
	}{
		{"messages", int64(s.Messages)}, {"deliveries", int64(s.Deliveries)},
		{"batches", int64(s.Batches)}, {"drops", int64(s.Drops)},
		{"copied_bytes", int64(s.CopiedBytes)}, {"linked_bytes", int64(s.LinkedBytes)},
		{"blocks_live", s.BlocksLive}, {"bytes_live", s.BytesLive},
		{"cache_rebuilds", int64(s.CacheRebuilds)},
	} {
		fmt.Fprintf(&b, "%-14s %d\n", row.name, row.n)
	}
	return []byte(b.String()), nil
}

func (t *Tree) renderEventBatch() ([]byte, error) {
	y := t.eventsFS()
	if y == nil {
		return []byte("unbound\n"), nil
	}
	s := y.EventStats()
	var b strings.Builder
	for i, n := range s.BatchSizes {
		label := fmt.Sprintf("<=%d", 1<<i)
		if i == len(s.BatchSizes)-1 {
			label = fmt.Sprintf(">%d", 1<<(i-1))
		}
		fmt.Fprintf(&b, "%-8s %d\n", label, n)
	}
	return []byte(b.String()), nil
}

func (t *Tree) renderEventApps() ([]byte, error) {
	y := t.eventsFS()
	if y == nil {
		return []byte("unbound\n"), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %10s %8s %6s\n", "buffer", "delivered", "drops", "depth")
	for _, a := range y.EventApps() {
		fmt.Fprintf(&b, "%-40s %10d %8d %6d\n", a.Path, a.Delivered, a.Drops, a.Depth)
	}
	return []byte(b.String()), nil
}

func (t *Tree) renderOps() ([]byte, error) {
	s := t.fs.Stats()
	var b strings.Builder
	for _, row := range []struct {
		name string
		n    uint64
	}{
		{"lookups", s.Lookups}, {"opens", s.Opens}, {"reads", s.Reads},
		{"writes", s.Writes}, {"creates", s.Creates}, {"removes", s.Removes},
		{"renames", s.Renames}, {"stats", s.Stats}, {"links", s.Links},
		{"attrs", s.Attrs}, {"readdirs", s.ReadDirs}, {"watches", s.Watches},
	} {
		fmt.Fprintf(&b, "%-8s %d\n", row.name, row.n)
	}
	fmt.Fprintf(&b, "%-8s %d\n", "total", s.Total())
	return []byte(b.String()), nil
}

func (t *Tree) renderContention() ([]byte, error) {
	s := t.fs.LockStats()
	queued, batches, backlog := t.fs.DispatchStats()
	var b strings.Builder
	for _, row := range []struct {
		name string
		n    uint64
	}{
		{"tree_read", s.TreeRead},
		{"tree_write", s.TreeWrite},
		{"tree_read_contended", s.TreeReadContended},
		{"tree_write_contended", s.TreeWriteContended},
		{"contended_total", s.Contended()},
		{"watch_dispatch_queued", queued},
		{"watch_dispatch_batches", batches},
		{"watch_dispatch_backlog", uint64(backlog)},
	} {
		fmt.Fprintf(&b, "%-22s %d\n", row.name, row.n)
	}
	return []byte(b.String()), nil
}

// The resolve_* files hold one bare counter each, so shell-side ratio
// math stays a two-read one-liner (`$(<resolve_fallback)` over the sum).
// These two counters tick on every lock-free read, so unlike the other
// renders they are polled at high rates by monitoring loops: the render
// is a direct strconv append (one owned []byte, no fmt boxing).
func (t *Tree) renderResolveLockfree() ([]byte, error) {
	return renderCounter(t.fs.LockStats().ResolveLockfree), nil
}

func (t *Tree) renderResolveFallback() ([]byte, error) {
	return renderCounter(t.fs.LockStats().ResolveFallback), nil
}

// renderCounter formats one bare counter as "<n>\n" in a single
// exactly-sized allocation: the returned buffer is the file content.
func renderCounter(n uint64) []byte {
	buf := make([]byte, 0, 21) // max uint64 digits + newline
	return append(strconv.AppendUint(buf, n, 10), '\n')
}

func (t *Tree) renderWatchQueues() ([]byte, error) {
	infos := t.fs.WatchInfos()
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-6s %-9s %8s %8s %8s %-16s %s\n",
		"id", "depth", "capacity", "drops", "overflow", "mask", "files", "path")
	for _, w := range infos {
		path := w.Path
		if w.Recursive {
			path += " (recursive)"
		}
		files := "-"
		if w.Files != nil {
			files = strings.Join(w.Files, ",")
		}
		fmt.Fprintf(&b, "%-4d %-6d %-9d %8d %8d %8x %-16s %s\n",
			w.ID, w.Depth, w.Capacity, w.Drops, w.Overflows, uint32(w.Mask), files, path)
	}
	return []byte(b.String()), nil
}

func (t *Tree) renderDFSRPC() ([]byte, error) {
	t.mu.Lock()
	servers := append([]*dfs.Server(nil), t.servers...)
	t.mu.Unlock()
	var b strings.Builder
	if len(servers) == 0 {
		b.WriteString("no exports\n")
	}
	for i, s := range servers {
		st := s.Stats()
		fmt.Fprintf(&b, "export %d: sessions %d requests %d errors %d watches %d\n",
			i, st.Sessions, st.Requests, st.Errors, st.Watches)
		ops := make([]string, 0, len(st.PerOp))
		for op := range st.PerOp {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			fmt.Fprintf(&b, "  %-12s %d\n", op, st.PerOp[op])
		}
	}
	return []byte(b.String()), nil
}

// sortedMounts returns the bound mounts in name order.
func (t *Tree) sortedMounts() []struct {
	name string
	c    *dfs.Client
} {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]struct {
		name string
		c    *dfs.Client
	}, 0, len(t.mounts))
	for name, c := range t.mounts {
		out = append(out, struct {
			name string
			c    *dfs.Client
		}{name, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (t *Tree) renderDFSQueue() ([]byte, error) {
	mounts := t.sortedMounts()
	var b strings.Builder
	if len(mounts) == 0 {
		b.WriteString("no mounts\n")
	}
	for _, m := range mounts {
		st := m.c.Stats()
		fmt.Fprintf(&b, "%s: depth %d/%d queued %d flushed %d rejects %d\n",
			m.name, st.QueueDepth, st.QueueCap, st.Queued, st.Flushed, st.QueueRejects)
	}
	return []byte(b.String()), nil
}

func (t *Tree) renderDFSReconnects() ([]byte, error) {
	mounts := t.sortedMounts()
	var b strings.Builder
	if len(mounts) == 0 {
		b.WriteString("no mounts\n")
	}
	for _, m := range mounts {
		st := m.c.Stats()
		state := "down"
		if st.Connected {
			state = "up"
		}
		fmt.Fprintf(&b, "%s: %s addr %s reconnects %d calls %d errors %d timeouts %d\n",
			m.name, state, m.c.Addr(), st.Reconnects, st.Calls, st.Errors, st.Timeouts)
	}
	return []byte(b.String()), nil
}

func (t *Tree) renderDFSReplication() ([]byte, error) {
	t.mu.Lock()
	replicas := append([]*dfs.Replica(nil), t.replicas...)
	t.mu.Unlock()
	mounts := t.sortedMounts()
	var b strings.Builder
	if len(replicas) == 0 && len(mounts) == 0 {
		b.WriteString("no replicas\n")
	}
	for _, r := range replicas {
		st := r.Stats()
		fmt.Fprintf(&b, "replica %d: role %s term %d log %d commit %d applied %d lag %d leader %d elections %d stepdowns %d dedup_skips %d\n",
			st.ID, st.Role, st.Term, st.LogLen, st.Commit, st.Applied, st.Lag,
			st.LeaderID, st.Elections, st.StepDowns, st.DedupSkips)
	}
	for _, m := range mounts {
		st := m.c.Stats()
		if st.Failovers == 0 && st.ReplayedWrites == 0 {
			continue
		}
		fmt.Fprintf(&b, "mount %s: failovers %d replayed_writes %d\n",
			m.name, st.Failovers, st.ReplayedWrites)
	}
	return []byte(b.String()), nil
}
