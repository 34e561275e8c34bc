package apps

import (
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// subscription is one app's packet-in event buffer (§3.5), the watch on
// it, and the goroutine that consumes it: the body the router, arpd,
// dhcpd, topod and the two views share. close removes whatever open and
// start put in place.
type subscription struct {
	p      *vfs.Proc
	buf    string
	watch  *vfs.Watch
	handle func(yancfs.PacketInEvent)
	done   chan struct{} // closed when the goroutine start launched returns
}

// open subscribes app in region, handing each message to handle, unless
// the subscription is open already.
func (s *subscription) open(p *vfs.Proc, region, app string, handle func(yancfs.PacketInEvent)) error {
	if s.watch != nil {
		return nil
	}
	buf, w, err := yancfs.Subscribe(p, region, app)
	if err != nil {
		return err
	}
	s.p, s.buf, s.watch, s.handle = p, buf, w, handle
	return nil
}

// start opens the subscription and consumes it in the background until
// close.
func (s *subscription) start(p *vfs.Proc, region, app string, handle func(yancfs.PacketInEvent)) error {
	if err := s.open(p, region, app, handle); err != nil {
		return err
	}
	if s.done == nil {
		s.done = make(chan struct{})
		go func(w *vfs.Watch, done chan struct{}) {
			defer close(done)
			for range w.C {
				s.drain()
			}
		}(s.watch, s.done)
	}
	return nil
}

// drain consumes every pending message and returns how many there were.
func (s *subscription) drain() int {
	if s.p == nil {
		return 0 // never opened
	}
	msgs, err := yancfs.PendingEvents(s.p, s.buf)
	if err != nil {
		return 0
	}
	for _, msg := range msgs {
		if ev, err := yancfs.ConsumePacketIn(s.p, msg); err == nil {
			s.handle(ev)
		}
	}
	return len(msgs)
}

// close removes the watch and waits for the goroutine, if one was
// started. The buffer stays, as a subscriber's directory does.
func (s *subscription) close() {
	if s.watch != nil {
		s.watch.Close()
		s.watch = nil
	}
	if s.done != nil {
		<-s.done
		s.done = nil
	}
}
