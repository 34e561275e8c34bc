package driver

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"yanc/internal/backoff"
	"yanc/internal/openflow"
	"yanc/internal/switchsim"
	"yanc/internal/yancfs"
)

// TestMassConnectHandshakeBacklog is the regression test for the mass
// (re)connect path: 1000 switches dialing one listener concurrently must
// all end up attached and "connected" — no spurious handshake timeouts,
// no accept-queue overflow, no dialer left stuck in backoff. This is
// what forced the bounded handshake backlog in Serve, the staggered
// DialRetry in switchsim, and the mux (four goroutines per switch would
// be 4000 here; the mux runs the same population on O(workers) + one
// parked reader per switch).
func TestMassConnectHandshakeBacklog(t *testing.T) {
	const nSwitches = 1000
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	d := New(y)
	d.EchoInterval = 30 * time.Second // out of the way; liveness has its own tests
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = d.Serve(ln) }()

	n := switchsim.NewNetwork()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	pol := backoff.Policy{Min: 20 * time.Millisecond, Max: 500 * time.Millisecond, Jitter: -1}
	for i := 1; i <= nSwitches; i++ {
		n.AddSwitch(uint64(i), fmt.Sprintf("sw%d", i), openflow.Version13, 2)
		sw := n.Switch(uint64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sw.DialRetryStaggered(ln.Addr().String(), pol, 2*time.Second, stop, nil)
		}()
	}

	p := y.Root()
	connected := func() int {
		c := 0
		for i := 1; i <= nSwitches; i++ {
			if s, _ := p.ReadString(fmt.Sprintf("/switches/sw%d/status", i)); s == "connected" {
				c++
			}
		}
		return c
	}
	deadline := time.Now().Add(90 * time.Second)
	for {
		c := connected()
		if c == nSwitches {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d switches connected before the deadline", c, nSwitches)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Every connection is live in the driver's registry too.
	for i := 1; i <= nSwitches; i++ {
		if d.Lookup(fmt.Sprintf("sw%d", i)) == nil {
			t.Fatalf("sw%d missing from driver registry", i)
		}
	}

	close(stop)
	ln.Close()
	<-serveDone
	d.Close()
	wg.Wait()
}
