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
		name := "fill-" + strconv.Itoa(i)
		internName(name)
		internName(name) // the second sighting admits it
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

// TestInternNameAdmitsOnSecondSighting: the name pool admits a name the
// second time it is created, so a flood of names each created once — a
// flow table's own names — leaves it empty, and a schema name created
// after the flood is still pooled. The pool is process-wide, so it is
// emptied for the test and put back after.
func TestInternNameAdmitsOnSecondSighting(t *testing.T) {
	names.mu.Lock()
	saved := names.m
	names.m = make(map[string]*byte)
	names.full.Store(false)
	names.mu.Unlock()
	t.Cleanup(func() {
		names.mu.Lock()
		names.m = saved
		names.full.Store(len(saved) >= internNameCap)
		names.mu.Unlock()
	})
	for i := 0; i < 100_000; i++ {
		internName("once-" + strconv.Itoa(i))
	}
	if len(names.m) != 0 || names.full.Load() {
		t.Fatalf("10⁵ names seen once each left %d in the pool (full %v), want none", len(names.m), names.full.Load())
	}

	fs := New()
	p := fs.RootProc()
	// entry returns the name blob of dir's entry name.
	entry := func(dir, name string) *byte {
		t.Helper()
		d, _ := fs.root.kids().get(dir)
		for it := d.kids().iter(); ; {
			e, ok := it.next()
			if !ok {
				t.Fatalf("/%s has no entry %q", dir, name)
			}
			if nameOf(e.name) == name {
				return e.name
			}
		}
	}
	for _, path := range []string{"/a", "/b", "/c"} {
		if err := p.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/a/twice", "/b/twice", "/a/single"} {
		if err := p.WriteString(path, "x"); err != nil {
			t.Fatal(err)
		}
	}
	names.mu.RLock()
	pooled := names.m["twice"]
	_, single := names.m["single"]
	names.mu.RUnlock()
	if pooled == nil {
		t.Fatal("a name created twice is not in the pool")
	}
	if single {
		t.Error("a name created once is in the pool")
	}
	if err := p.WriteString("/c/twice", "x"); err != nil {
		t.Fatal(err)
	}
	if b, c := entry("b", "twice"), entry("c", "twice"); b != pooled || c != pooled {
		t.Errorf("the second and third creations hold name blobs %p and %p, want the pool's %p", b, c, pooled)
	}
}
