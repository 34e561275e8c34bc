package main

import (
	"sync"
	"time"

	"yanc/bench/ofsink"
)

// Phases an operation can belong to. Only phFixed and phCapacity feed
// end-to-end metrics; fill and warm-up operations are tracked so the drain
// and the verifier see them, but they are not timed.
const (
	phSetup    = iota
	phBaseline // the traced run's untraced capacity phase
	phFixed
	phCapacity
	nPhases
)

// op is one generated operation. It completes when every part it expects
// has been applied at a sink.
type op struct {
	id    int
	phase int
	due   time.Duration // since the run's epoch
	parts int           // outstanding parts
	timed bool          // false for the trailing deletes that keep the resident set steady
	// window marks an op that holds a slot of the capacity phase's
	// in-flight window.
	window bool
}

// partKey names one thing a sink is expected to apply.
type partKey struct {
	sw   int
	kind ofsink.Kind
	key  ofsink.Key
}

// want is one thing an operation expects a sink to apply. A FlowAdd want
// carries the body the add must have: the driver may coalesce back-to-back
// rewrites of a flow into one push, so an arriving add resolves every
// outstanding want up to and including the newest one whose body it
// matches — all of them became switch state the moment it landed. anyBody
// wants (deletes, packet-outs) match on the key alone.
type want struct {
	partKey
	body    uint64
	anyBody bool
}

type part struct {
	op *op
	want
}

// tracker matches generated operations to what the sinks apply.
type tracker struct {
	epoch time.Time

	mu      sync.Mutex
	pend    map[partKey][]part
	open    int // operations not yet completed or aborted
	done    [nPhases][]sample
	issued  [nPhases]int
	aborted [nPhases]int
	// unexpected counts sink events nothing was waiting for: resync
	// duplicates, and adds whose body matched no outstanding want.
	unexpected int
	slots      chan struct{} // capacity-phase in-flight window
	onDone     func(o *op, at time.Duration)
}

func newTracker(epoch time.Time) *tracker {
	return &tracker{epoch: epoch, pend: make(map[partKey][]part), slots: make(chan struct{}, inFlightWindow)}
}

// expect registers an operation and its parts before the generator issues
// it, so a completion can never arrive first.
func (t *tracker) expect(o *op, wants ...want) {
	o.parts = len(wants)
	t.mu.Lock()
	for _, w := range wants {
		t.pend[w.partKey] = append(t.pend[w.partKey], part{op: o, want: w})
	}
	t.open++
	if o.timed {
		t.issued[o.phase]++
	}
	t.mu.Unlock()
}

// abort drops every outstanding part under key: the flow is being deleted
// before the switch saw those writes. The op streams never do that to a
// healthy system (deletes take flows written long before), so the verifier
// counts an aborted operation as failed; aborting keeps the accounting and
// the capacity window moving when it does happen.
func (t *tracker) abort(k partKey) {
	t.mu.Lock()
	for _, p := range t.pend[k] {
		if p.op.parts > 0 {
			p.op.parts = 0
			t.open--
			if p.op.timed {
				t.aborted[p.op.phase]++
			}
			t.release(p.op)
		}
	}
	delete(t.pend, k)
	t.mu.Unlock()
}

// release frees the op's slot in the capacity window. Caller holds mu.
func (t *tracker) release(o *op) {
	if o.window {
		o.window = false
		<-t.slots
	}
}

// observe is the sinks' OnEvent hook.
func (t *tracker) observe(sw int, ev ofsink.Event) {
	k := partKey{sw: sw, kind: ev.Kind, key: ev.Key}
	at := ev.At.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	parts := t.pend[k]
	if len(parts) == 0 {
		t.unexpected++
		return
	}
	last := -1
	for i := len(parts) - 1; i >= 0; i-- {
		if parts[i].anyBody || parts[i].body == ev.Body {
			last = i
			break
		}
	}
	if last < 0 {
		t.unexpected++
		return
	}
	for _, p := range parts[:last+1] {
		o := p.op
		if o.parts == 0 {
			continue // aborted
		}
		if o.parts--; o.parts > 0 {
			continue
		}
		t.open--
		if o.timed {
			t.done[o.phase] = append(t.done[o.phase], sample{At: at, Lat: at - o.due})
		}
		t.release(o)
		if t.onDone != nil {
			t.onDone(o, at)
		}
	}
	if last+1 == len(parts) {
		delete(t.pend, k)
	} else {
		t.pend[k] = parts[last+1:]
	}
}

func (t *tracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open
}

// waitIdle waits until every operation has completed, or the timeout.
func (t *tracker) waitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for t.outstanding() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
