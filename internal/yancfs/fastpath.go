package yancfs

import (
	"errors"
	"strconv"
	"strings"
	"sync"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
)

// matchFileNames caches the "match.<field>" file name for each
// canonical field so the hot path never rebuilds the string.
var matchFileNames = func() []string {
	names := make([]string, len(openflow.AllFields))
	for i, f := range openflow.AllFields {
		names[i] = MatchPrefix + f.Name()
	}
	return names
}()

// actionFileNames caches "action.<name>" per action kind the same way:
// hotalloc caught the per-action ActionPrefix+name concatenation this
// table replaces.
var actionFileNames = func() []string {
	names := make([]string, int(openflow.ActSetTPDst)+1)
	for t := range names {
		names[t] = ActionPrefix + openflow.Action{Type: openflow.ActionType(t)}.FileName()
	}
	return names
}()

// actionFileName returns the cached "action.<name>" for a's kind.
func actionFileName(a openflow.Action) string {
	if int(a.Type) < len(actionFileNames) {
		return actionFileNames[a.Type]
	}
	return ActionPrefix + "unknown"
}

// flowScratch recycles the per-flow rendering scratch: the FileData
// slice, the span offsets and the arena the values are rendered into.
// All of it dies as soon as WriteTree returns, since the file system
// copies every value into its own arena, and a 1k-flow drain would
// otherwise retire ~1.5KB of garbage per flow.
var flowScratch = sync.Pool{New: func() any {
	return &flowScratchBuf{
		files: make([]vfs.FileData, 0, 16),
		spans: make([][2]int, 0, 16),
		arena: make([]byte, 0, 160),
	}
}}

type flowScratchBuf struct {
	files []vfs.FileData
	spans [][2]int
	arena []byte
}

// flowFiles renders the per-field files of a flow directory — match
// fields, action files, metadata, and the committed version — in the
// exact content format the file-I/O path produces.
//
// Every value is rendered into the scratch's one arena, and the FileData
// slices are cut from it at the end (spans are kept as offsets because
// append may move the backing array). The slices belong to the scratch:
// they are valid until release, and the file system copies what it keeps.
//
//yancvet:hotalloc
func flowFiles(spec FlowSpec, version uint64) ([]vfs.FileData, *flowScratchBuf) {
	sc := flowScratch.Get().(*flowScratchBuf)
	files := sc.files[:0]
	spans := sc.spans[:0]
	arena := sc.arena[:0]
	mark := 0
	seal := func(name string) { // close out the value appended since mark
		arena = append(arena, '\n')
		spans = append(spans, [2]int{mark, len(arena)})
		files = append(files, vfs.FileData{Name: name})
		mark = len(arena)
	}
	for i, f := range openflow.AllFields {
		if spec.Match.Has(f) {
			arena = spec.Match.AppendField(arena, f)
			seal(matchFileNames[i])
		}
	}
	for _, a := range spec.Actions {
		arena = a.AppendFileValue(arena)
		seal(actionFileName(a))
	}
	arena = strconv.AppendUint(arena, uint64(spec.Priority), 10)
	seal(FilePriority)
	arena = strconv.AppendUint(arena, uint64(spec.IdleTimeout), 10)
	seal(FileIdleTimeout)
	arena = strconv.AppendUint(arena, uint64(spec.HardTimeout), 10)
	seal(FileHardTimeout)
	if spec.Cookie != 0 {
		arena = strconv.AppendUint(arena, spec.Cookie, 10)
		seal(FileCookie)
	}
	// version last, so the commit event trails the field events.
	arena = strconv.AppendUint(arena, version, 10)
	seal(FileVersion)
	for i := range files {
		s := spans[i]
		files[i].Data = arena[s[0]:s[1]]
	}
	sc.files, sc.spans, sc.arena = files, spans, arena
	return files, sc
}

// release returns the scratch to the pool once the FileData slice has
// been consumed.
func (sc *flowScratchBuf) release() {
	for i := range sc.files {
		sc.files[i] = vfs.FileData{} // drop the counters set a flow names
	}
	flowScratch.Put(sc)
}

// PutFlowTx writes a complete flow — skeleton, match files, action files,
// metadata, and the committed version — inside an already-open
// transaction. This is the primitive behind libyanc's fastpath (§8.1):
// one lock acquisition and one event flush replace the dozens of
// open/write/close calls the file-I/O path performs, while producing an
// identical on-disk layout, so drivers cannot tell the difference.
//
// A fresh flow takes the WriteTree branch: every field file lands in one
// path resolution and one inode-map fill, which is what lets the libyanc
// ring clear its 10x-over-file-I/O throughput target at 1k switches.
func (y *FS) PutFlowTx(tx *vfs.Tx, flowPath string, spec FlowSpec) (uint64, error) {
	flowPath = vfs.Clean(flowPath)
	// Fresh flow first: the whole flow — field files, the counters
	// subdir holding the shared counters set, and the committed version —
	// lands in ONE WriteTree: one path resolution, two inode slab chunks
	// and one arena for every value. An existing flow surfaces as
	// ErrExist and takes the rewrite branch.
	{
		counters, err := y.flowCounters(tx, 0, 0)
		if err != nil {
			return 0, err
		}
		files, sc := flowFiles(spec, 1)
		// Keep version last so its commit event trails everything else.
		version := files[len(files)-1]
		files[len(files)-1] = vfs.FileData{Name: "counters", Set: counters}
		files = append(files, version)
		err = tx.WriteTree(flowPath, files, 0o755, 0o644, 0, 0)
		sc.release()
		if err == nil {
			return 1, nil
		}
		if !errors.Is(err, vfs.ErrExist) {
			return 0, err
		}
	}
	// Rewrite of an existing flow: clear stale match/action files and a
	// cookie from a previous incarnation, then write fields individually.
	dir, err := tx.OpenDir(flowPath)
	if err != nil {
		return 0, err
	}
	for e, ok := dir.Next(); ok; e, ok = dir.Next() {
		if strings.HasPrefix(e.Name, MatchPrefix) || strings.HasPrefix(e.Name, ActionPrefix) || e.Name == FileCookie {
			if err := tx.Remove(vfs.Join(flowPath, e.Name)); err != nil {
				return 0, err
			}
		}
	}
	var version uint64 = 1
	if cur, err := tx.ReadFile(vfs.Join(flowPath, FileVersion)); err == nil {
		v, _ := strconv.ParseUint(strings.TrimSpace(string(cur)), 10, 64)
		version = v + 1
	}
	fields, sc := flowFiles(spec, version)
	for _, f := range fields {
		if err := tx.WriteFile(vfs.Join(flowPath, f.Name), f.Data, 0o644, 0, 0); err != nil {
			sc.release()
			return 0, err
		}
	}
	sc.release()
	return version, nil
}
