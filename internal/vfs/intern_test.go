package vfs

import (
	"maps"
	"strconv"
	"testing"
	"time"
)

// TestInternMissWhenFullTakesNoLock: once a pool is full, a miss must not
// wait for the pool's write lock, or every write of a value the pool
// cannot hold would serialize all writers on it. The test fills both
// pools, holds their read locks — which keeps any write lock from being
// granted — and requires a miss on each to return. The pools are
// process-wide, so they are put back as they were.
func TestInternMissWhenFullTakesNoLock(t *testing.T) {
	payloads.mu.Lock()
	savedData := maps.Clone(payloads.m)
	payloads.mu.Unlock()
	names.mu.Lock()
	savedNames := maps.Clone(names.m)
	names.mu.Unlock()
	t.Cleanup(func() {
		payloads.mu.Lock()
		payloads.m = savedData
		payloads.full.Store(len(savedData) >= internDataCap)
		payloads.mu.Unlock()
		names.mu.Lock()
		names.m = savedNames
		names.full.Store(len(savedNames) >= internNameCap)
		names.mu.Unlock()
	})
	for i := 0; !payloads.full.Load(); i++ {
		internBytes(strconv.AppendInt([]byte("fill-"), int64(i), 10))
	}
	for i := 0; !names.full.Load(); i++ {
		internName("fill-" + strconv.Itoa(i))
	}

	payloads.mu.RLock()
	names.mu.RLock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := internBytes([]byte("a value the full pool never saw")); ok {
			t.Error("a full payload pool admitted a value")
		}
		if got := nameOf(internName("a name the full pool never saw")); got != "a name the full pool never saw" {
			t.Errorf("internName = %q", got)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Error("a miss on a full pool waited for the pool's write lock")
	}
	names.mu.RUnlock()
	payloads.mu.RUnlock()
	<-done
}
