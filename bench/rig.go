package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"yanc/bench/ofsink"
	"yanc/internal/driver"
	"yanc/internal/procfs"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// nSwitches is fixed, not derived from the machine: the box this was
// calibrated on has two cores, and a benchmark whose shape follows nproc
// cannot be compared across boxes.
const nSwitches = 2

func switchPath(sw int) string { return fmt.Sprintf("/switches/sw%d", sw+1) }

// rig is the system under test: a controller file system, the driver
// serving a loopback TCP listener (so the production epoll read path is
// the one exercised), and nSwitches sinks connected to it. It is wired
// the way yanc.NewController wires a controller.
type rig struct {
	y     *yancfs.FS
	p     *vfs.Proc
	d     *driver.Driver
	ln    net.Listener
	sinks [nSwitches]*ofsink.Sink
	conns [nSwitches]net.Conn

	wg       sync.WaitGroup
	mu       sync.Mutex
	serveErr error
}

// newRig builds the controller side. The caller may still set fields of
// r.d (the FlowInstalledHook) before connect starts serving.
func newRig() (*rig, error) {
	y, err := yancfs.New()
	if err != nil {
		return nil, err
	}
	tree, err := procfs.Install(y.VFS())
	if err != nil {
		return nil, err
	}
	tree.BindEvents(y)
	r := &rig{y: y, p: y.Root(), d: driver.New(y)}
	r.d.ProcDir = procfs.DriverDir
	return r, nil
}

// connect starts serving, dials the sinks in and waits until every one
// shows as connected. onEvent observes what the sinks apply; dropNth is
// handed to sink 0 (fault injection for the verifier's own test).
func (r *rig) connect(onEvent func(sw int, ev ofsink.Event), dropNth uint64) error {
	var err error
	r.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.fail(r.d.Serve(r.ln))
	}()
	for i := range r.sinks {
		i := i
		s := &ofsink.Sink{DPID: uint64(i + 1), Ports: 2}
		if i == 0 {
			s.DropNth = dropNth
		}
		s.OnEvent = func(ev ofsink.Event) { onEvent(i, ev) }
		c, err := net.Dial("tcp", r.ln.Addr().String())
		if err != nil {
			return err
		}
		r.sinks[i], r.conns[i] = s, c
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.fail(s.Serve(c))
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < nSwitches; {
		if s, _ := r.p.ReadString(switchPath(i) + "/status"); s == "connected" {
			i++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: sw%d not connected after 10s", i+1)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (r *rig) fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	if r.serveErr == nil {
		r.serveErr = err
	}
	r.mu.Unlock()
}

// close tears the rig down and returns the first error any of its
// goroutines hit while it ran.
func (r *rig) close() error {
	r.d.Close()
	if r.ln != nil {
		r.ln.Close()
	}
	for _, c := range r.conns {
		if c != nil {
			c.Close()
		}
	}
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.serveErr
}
