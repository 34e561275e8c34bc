package dfs

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"yanc/internal/faultnet"
	"yanc/internal/vfs"
)

// testTiming is the fast protocol timing every replica test runs on.
func testTiming(o *ReplicaOptions) {
	o.Heartbeat = 5 * time.Millisecond
	o.LeaseTimeout = 60 * time.Millisecond
	o.ElectionTimeout = 80 * time.Millisecond
	o.CommitTimeout = 3 * time.Second
}

// testCluster is an in-process replica group. Every replica's transport
// — its listener and its outbound peer dials — runs through its own
// faultnet injector, so a test can isolate exactly one member.
type testCluster struct {
	t     *testing.T
	addrs []string
	fss   []*vfs.FS
	reps  []*Replica
	injs  []*faultnet.Injector
}

func newCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		tc.addrs = append(tc.addrs, l.Addr().String())
	}
	for i := 0; i < n; i++ {
		inj := faultnet.New(int64(1000 + i))
		fs := vfs.New()
		opts := ReplicaOptions{
			ID:    i,
			Addrs: tc.addrs,
			Seed:  int64(i + 1),
			Dial: func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, time.Second)
				if err != nil {
					return nil, err
				}
				return inj.Wrap(c), nil
			},
		}
		testTiming(&opts)
		r, err := NewReplica(fs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ListenOn(inj.WrapListener(listeners[i])); err != nil {
			t.Fatal(err)
		}
		r.Start()
		tc.fss = append(tc.fss, fs)
		tc.reps = append(tc.reps, r)
		tc.injs = append(tc.injs, inj)
	}
	t.Cleanup(func() {
		for _, r := range tc.reps {
			r.Close()
		}
	})
	return tc
}

// waitLeader blocks until some replica outside excluded claims
// leadership and returns its ID.
func (tc *testCluster) waitLeader(excluded ...int) int {
	tc.t.Helper()
	skip := make(map[int]bool)
	for _, id := range excluded {
		skip[id] = true
	}
	var id int
	eventually(tc.t, "leader election", func() bool {
		for i, r := range tc.reps {
			if !skip[i] && r.IsLeader() {
				id = i
				return true
			}
		}
		return false
	})
	return id
}

// readOn reads path on replica i's local tree (bypassing the wire).
func (tc *testCluster) readOn(i int, path string) (string, bool) {
	b, err := tc.fss[i].Proc(vfs.Root).ReadFile(path)
	return string(b), err == nil
}

func TestReplicaElectionAndStrictReplication(t *testing.T) {
	tc := newCluster(t, 3)
	lead := tc.waitLeader()

	c, err := MountOptions(tc.addrs[lead], vfs.Root, Strict, fastOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.MkdirAll("/flows", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteString("/flows/f1", "match=*, action=drop"); err != nil {
		t.Fatal(err)
	}
	// A strict write was majority-acked; every replica converges on it.
	for i := range tc.reps {
		i := i
		eventually(t, fmt.Sprintf("replica %d converged", i), func() bool {
			got, ok := tc.readOn(i, "/flows/f1")
			return ok && strings.Contains(got, "drop")
		})
	}
	st := tc.reps[lead].Stats()
	if st.Role != "leader" || st.Commit == 0 || st.Applied < st.Commit {
		t.Fatalf("leader stats inconsistent: %+v", st)
	}
}

func TestReplicaFollowerRejectsWritesWithRedirect(t *testing.T) {
	tc := newCluster(t, 3)
	lead := tc.waitLeader()
	follower := (lead + 1) % 3

	c, err := MountOptions(tc.addrs[follower], vfs.Root, Strict, fastOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Mkdir("/nope", 0o755)
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("write on follower = %v, want ErrNotLeader", err)
	}
	// Reads are served locally at the follower's applied index.
	if _, err := c.ReadDir("/"); err != nil {
		t.Fatalf("read on follower: %v", err)
	}
}

func TestReplicaDedupAppliesExactlyOnce(t *testing.T) {
	tc := newCluster(t, 3)
	lead := tc.waitLeader()
	r := tc.reps[lead]

	req := &request{Op: opAppendFile, Path: "/log", Data: []byte("x"), Mode: 0o644, ClientID: 42, Seq: 7}
	if rsp := r.propose(Strict, req); rsp.Err != "" {
		t.Fatalf("first propose: %s", rsp.Err)
	}
	// The replayed op (same ClientID/Seq, as a failover client would
	// resend it) must not append twice.
	replay := *req
	if rsp := r.propose(Strict, &replay); rsp.Err != "" {
		t.Fatalf("replay propose: %s", rsp.Err)
	}
	if got, _ := tc.readOn(lead, "/log"); got != "x" {
		t.Fatalf("log = %q, want exactly one apply", got)
	}
	if skips := r.Stats().DedupSkips; skips == 0 {
		t.Fatal("dedup skip not counted")
	}
}

func TestReplicaConsistencyXattrOverridesSessionDefault(t *testing.T) {
	tc := newCluster(t, 3)
	lead := tc.waitLeader()
	r := tc.reps[lead]

	p := tc.fss[lead].Proc(vfs.Root)
	if err := p.MkdirAll("/counters", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.SetXattr("/counters", ConsistencyXattr, []byte("eventual")); err != nil {
		t.Fatal(err)
	}
	if got := r.resolveMode(&request{Op: opWriteFile, Path: "/counters/pkts"}, Strict); got != Eventual {
		t.Fatalf("override under /counters = %v, want Eventual", got)
	}
	if got := r.resolveMode(&request{Op: opWriteFile, Path: "/flows/f1"}, Strict); got != Strict {
		t.Fatalf("default path = %v, want Strict", got)
	}
}

func TestReplicaStrictUnavailableWithoutMajority(t *testing.T) {
	tc := newCluster(t, 3)
	lead := tc.waitLeader()
	// Kill both followers: no majority can ever ack again.
	for i := range tc.reps {
		if i != lead {
			tc.reps[i].Close()
		}
	}
	// Allow the lease to lapse so the leader has stepped down (or, if we
	// race the lapse, the strict propose fails on the commit wait).
	time.Sleep(100 * time.Millisecond)
	rsp := tc.reps[lead].propose(Strict, &request{Op: opMkdir, Path: "/d", Mode: 0o755, ClientID: 1, Seq: 1})
	if rsp.Err == "" {
		t.Fatal("strict write succeeded without a majority")
	}
}

// TestChaosReplicaFailoverExactlyOnce is E16: a failover mount pushes a
// 24-entry log while, at the halfway write, the leader is killed, fully
// partitioned, or partitioned inbound-only (it still heartbeats but hears
// nothing — the split-brain shape only its lease can end). Partitions
// heal after the writes. Every live replica must end with identical log
// bytes holding each acknowledged entry exactly once, within 5 s of the
// fault. Run with -v for the E16 table.
func TestChaosReplicaFailoverExactlyOnce(t *testing.T) {
	const writes = 24
	for _, sc := range []struct {
		name  string
		fault func(tc *testCluster, lead int)
	}{
		{"leader-kill", func(tc *testCluster, lead int) { tc.reps[lead].Close() }},
		{"leader-partition", func(tc *testCluster, lead int) { tc.injs[lead].Partition() }},
		{"inbound-partition", func(tc *testCluster, lead int) { tc.injs[lead].PartitionDir(faultnet.Inbound) }},
	} {
		t.Run(sc.name, func(t *testing.T) {
			tc := newCluster(t, 3)
			tc.waitLeader()
			// CallTimeout is the client's partition detector: a deaf leader
			// is abandoned after one silent RPC (DESIGN.md §12).
			opts := fastOpts(true)
			opts.CallTimeout = 500 * time.Millisecond
			opts.FailoverMaxElapsed = 20 * time.Second
			c, err := MountReplicas(tc.addrs, vfs.Root, Strict, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.MkdirAll("/flows", 0o755); err != nil {
				t.Fatal(err)
			}

			lead := -1
			var faultAt time.Time
			for i := 0; i < writes; i++ {
				if i == writes/2 {
					lead = tc.waitLeader()
					faultAt = time.Now()
					sc.fault(tc, lead)
				}
				if err := c.AppendFile("/flows/log", []byte(fmt.Sprintf("entry-%d\n", i)), 0o644); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			tc.injs[lead].Heal()

			converged := func() bool {
				ref, _ := tc.readOn((lead+1)%3, "/flows/log")
				for i := range tc.reps {
					if got, _ := tc.readOn(i, "/flows/log"); got != ref && !(sc.name == "leader-kill" && i == lead) {
						return false
					}
				}
				for i := 0; i < writes; i++ {
					if strings.Count(ref, fmt.Sprintf("entry-%d\n", i)) != 1 {
						return false
					}
				}
				return true
			}
			for !converged() {
				if time.Since(faultAt) > 5*time.Second {
					t.Fatalf("live replicas not identical with every acked entry exactly once %v after the fault", time.Since(faultAt))
				}
				time.Sleep(5 * time.Millisecond)
			}
			st := c.Stats()
			t.Logf("acked %d/%d  failovers %d  replayed %d  lost 0  dup 0  converged in %v",
				writes, writes, st.Failovers, st.ReplayedWrites, time.Since(faultAt).Round(time.Millisecond))
			if st.Failovers == 0 {
				t.Fatal("failover not counted")
			}
		})
	}
}

// TestChaosAsymmetricPartitionDethronesLeader models the one-way fault
// the lease exists for: the leader can still send heartbeats (so no
// follower times out) but hears no acks back. Only the lease can
// dethrone it — and must, within bounded time, so the majority side
// elects a successor.
func TestChaosAsymmetricPartitionDethronesLeader(t *testing.T) {
	tc := newCluster(t, 3)
	lead := tc.waitLeader()

	tc.injs[lead].PartitionDir(faultnet.Inbound)
	newLead := tc.waitLeader(lead)
	if newLead == lead {
		t.Fatal("leader did not change")
	}
	eventually(t, "old leader stepped down", func() bool {
		return !tc.reps[lead].IsLeader()
	})
	if tc.reps[lead].Stats().StepDowns == 0 {
		t.Fatal("lease step-down not counted")
	}

	// After healing, the deposed leader rejoins as a follower and
	// converges on the new leader's log.
	tc.injs[lead].Heal()
	c, err := MountOptions(tc.addrs[newLead], vfs.Root, Strict, fastOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteString("/after-heal", "ok"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "deposed leader converged", func() bool {
		got, ok := tc.readOn(lead, "/after-heal")
		return ok && got == "ok"
	})
}

// TestChaosWatchReplayAcrossFailover kills the leader while a failover
// mount holds a recursive watch and a writer keeps pushing. The watch
// must survive onto the new leader: post-failover writes surface as
// events (a synthetic Overflow marking the gap is allowed), and the
// dead leader must not leak goroutines into the mount.
func TestChaosWatchReplayAcrossFailover(t *testing.T) {
	tc := newCluster(t, 3)
	lead := tc.waitLeader()

	opts := fastOpts(true)
	opts.FailoverMaxElapsed = 20 * time.Second
	c, err := MountReplicas(tc.addrs, vfs.Root, Strict, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MkdirAll("/flows", 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := c.AddWatch("/flows", vfs.OpAll, true)
	if err != nil {
		t.Fatal(err)
	}

	var evMu sync.Mutex
	seen := make(map[string]bool)
	overflow := false
	saw := func(path string) bool {
		evMu.Lock()
		defer evMu.Unlock()
		return seen[path]
	}
	sawOverflow := func() bool {
		evMu.Lock()
		defer evMu.Unlock()
		return overflow
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range w.C {
			evMu.Lock()
			if ev.Op == vfs.OpOverflow {
				overflow = true
			} else {
				seen[ev.Path] = true
			}
			evMu.Unlock()
		}
	}()

	base := runtime.NumGoroutine()
	if err := c.WriteString("/flows/before", "1"); err != nil {
		t.Fatal(err)
	}
	tc.reps[lead].Close()
	tc.waitLeader(lead)
	if err := c.WriteString("/flows/after", "2"); err != nil {
		t.Fatal(err)
	}

	eventually(t, "post-failover event delivery", func() bool {
		// The event for /flows/after must arrive via the replayed watch;
		// pre-failover events may be summarized by the Overflow marker.
		return saw("/flows/after") && (saw("/flows/before") || sawOverflow())
	})
	w.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watch channel never closed")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "goroutines drained", func() bool {
		return runtime.NumGoroutine() <= base+3
	})
}

// TestStressReplicaConcurrentStrictWriters hammers the leader with
// concurrent strict writers and checks the replicated log applies every
// write on every replica.
func TestStressReplicaConcurrentStrictWriters(t *testing.T) {
	tc := newCluster(t, 3)
	lead := tc.waitLeader()

	c, err := MountReplicas(tc.addrs, vfs.Root, Strict, fastOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.MkdirAll("/w", 0o755); err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 10
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				if err := c.WriteString(fmt.Sprintf("/w/f-%d-%d", g, i), "v"); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < writers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := range tc.reps {
		i := i
		eventually(t, fmt.Sprintf("replica %d has all writes", i), func() bool {
			entries, err := tc.fss[i].Proc(vfs.Root).ReadDir("/w")
			return err == nil && len(entries) == writers*per
		})
	}
	_ = lead
}
