package benchutil

import (
	"fmt"
	"testing"

	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// TestAllocWriteFlow pins what the plain-file path allocates per flow,
// with a recursive watch installed and kept drained (the driver's, in
// production): rewriting a flow that exists costs its event-path strings
// and little else; a new flow adds its inodes, its directory's trie
// copies and the mkdir skeleton.
func TestAllocWriteFlow(t *testing.T) {
	y, err := NewFSOnlyRig(1)
	if err != nil {
		t.Fatal(err)
	}
	p := y.Root()
	w, err := p.AddWatch("/", vfs.OpAll, vfs.Recursive(), vfs.BufferSize(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	drain := func() {
		y.VFS().SyncWatches()
		for len(w.C) > 0 {
			<-w.C
		}
	}
	const runs = 100
	paths := make([]string, runs+2)
	for i := range paths {
		paths[i] = yancfs.FlowPath("sw1", fmt.Sprintf("f%04d", i))
	}
	spec := SampleFlowSpec(1)
	if _, err := yancfs.WriteFlow(p, paths[0], spec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := yancfs.WriteFlow(p, paths[0], spec); err != nil {
			t.Fatal(err)
		}
		drain()
	}); n > 60 {
		t.Errorf("WriteFlow on an existing flow allocates %.0f objects, want <= 60", n)
	} else {
		t.Logf("WriteFlow on an existing flow: %.0f allocations", n)
	}
	next := 1
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := yancfs.WriteFlow(p, paths[next], spec); err != nil {
			t.Fatal(err)
		}
		next++
		drain()
	}); n > 140 {
		t.Errorf("WriteFlow of a new flow allocates %.0f objects, want <= 140", n)
	} else {
		t.Logf("WriteFlow of a new flow: %.0f allocations", n)
	}
}
