package yancfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
)

// FlowSpec is the in-memory form of a flow directory: one match.* file
// per participating field, one action.* file per action, plus priority,
// timeouts, and cookie (Figure 3).
type FlowSpec struct {
	Match       openflow.Match
	Priority    uint16
	IdleTimeout uint16
	HardTimeout uint16
	Cookie      uint64
	Actions     []openflow.Action
}

// WriteFlow writes the spec's fields into the flow directory at flowPath
// using ordinary file I/O — one create+write+close per field, exactly the
// per-access cost §8.1 talks about — and then commits it by incrementing
// the version file. The directory is created if missing (its skeleton
// comes from the flows/ mkdir semantics). Returns the committed version.
//
// The directory is resolved once: every call after the first names its
// file relative to one vfs.DirRef. The calls are the same calls, counted
// the same; each costs a lookup in the flow directory instead of a walk
// from the root.
//
//yancvet:hotalloc
func WriteFlow(p *vfs.Proc, flowPath string, spec FlowSpec) (uint64, error) {
	ref, err := p.DirRef(flowPath)
	if err != nil {
		if ref, err = p.MkdirRef(flowPath, 0o755); err != nil {
			return 0, err
		}
	}
	var buf [32]byte // the longest value is a CIDR address, 18 bytes
	for i, f := range openflow.AllFields {
		name := matchFileNames[i]
		if spec.Match.Has(f) {
			if err := p.WriteFileAt(ref, name, append(spec.Match.AppendField(buf[:0], f), '\n'), 0o644); err != nil {
				return 0, err
			}
		} else if p.ExistsAt(ref, name) {
			if err := p.RemoveAt(ref, name); err != nil {
				return 0, err
			}
		}
	}
	// Remove stale action files, and a cookie the spec no longer has (no
	// cookie is no file, as in a fresh flow), then write the current ones.
	entries, err := p.ReadDirAt(ref, ".")
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name, ActionPrefix) && !hasActionFile(spec.Actions, e.Name) ||
			e.Name == FileCookie && spec.Cookie == 0 {
			if err := p.RemoveAt(ref, e.Name); err != nil {
				return 0, err
			}
		}
	}
	for _, a := range spec.Actions {
		if err := p.WriteFileAt(ref, actionFileName(a), append(a.AppendFileValue(buf[:0]), '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	if err := writeUintAt(p, ref, FilePriority, uint64(spec.Priority)); err != nil {
		return 0, err
	}
	if err := writeUintAt(p, ref, FileIdleTimeout, uint64(spec.IdleTimeout)); err != nil {
		return 0, err
	}
	if err := writeUintAt(p, ref, FileHardTimeout, uint64(spec.HardTimeout)); err != nil {
		return 0, err
	}
	if spec.Cookie != 0 {
		if err := writeUintAt(p, ref, FileCookie, spec.Cookie); err != nil {
			return 0, err
		}
	}
	return commitFlow(p, ref)
}

// hasActionFile reports whether one of actions is stored under name.
func hasActionFile(actions []openflow.Action, name string) bool {
	for _, a := range actions {
		if actionFileName(a) == name {
			return true
		}
	}
	return false
}

// writeUintAt writes v, in decimal and newline-terminated, to the file
// name of the flow directory ref.
func writeUintAt(p *vfs.Proc, ref vfs.DirRef, name string, v uint64) error {
	var buf [24]byte
	return p.WriteFileAt(ref, name, append(strconv.AppendUint(buf[:0], v, 10), '\n'), 0o644)
}

// CommitFlow atomically publishes the staged flow fields by incrementing
// the version file. Drivers watch this file; "changes are only sent to
// hardware once the version has been incremented" (§3.4).
func CommitFlow(p *vfs.Proc, flowPath string) (uint64, error) {
	ref, err := p.DirRef(flowPath)
	if err != nil {
		return 0, err
	}
	return commitFlow(p, ref)
}

func commitFlow(p *vfs.Proc, ref vfs.DirRef) (uint64, error) {
	v, _ := flowVersion(p, ref) // unreadable or unparsable counts from 0
	v++
	if err := writeUintAt(p, ref, FileVersion, v); err != nil {
		return 0, err
	}
	return v, nil
}

// FlowVersion reads a flow's committed version (0 = staged, never
// committed).
func FlowVersion(p *vfs.Proc, flowPath string) (uint64, error) {
	ref, err := p.DirRef(flowPath)
	if err != nil {
		return 0, err
	}
	return flowVersion(p, ref)
}

func flowVersion(p *vfs.Proc, ref vfs.DirRef) (uint64, error) {
	b, err := p.ReadFileAt(ref, FileVersion)
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(string(bytes.TrimSpace(b)), 10, 64) //yancvet:alloc none: the conversion does not outlive the call
}

// FlowSnap is one committed flow as captured by SnapshotFlows.
type FlowSnap struct {
	Name    string
	Version uint64
	Spec    FlowSpec
}

// SnapshotFlows reads every committed flow under switchPath in a single
// read transaction: one lock acquisition for the whole table, and a
// mutually consistent view — no per-flow seqlock retries, because nothing
// can commit mid-snapshot. It is the oracle convergence checks fold a
// switch's table against.
func (y *FS) SnapshotFlows(switchPath string) ([]FlowSnap, error) {
	dir := vfs.Join(switchPath, "flows")
	var out []FlowSnap
	err := y.vfs.ReadTx(func(tx *vfs.Tx) error {
		entries, err := tx.ReadDir(dir)
		if err != nil {
			if errIsNotExist(err) {
				return nil
			}
			return err
		}
		var r FlowReader
		for _, e := range entries {
			if !e.IsDir() || strings.HasPrefix(e.Name, ".") {
				continue
			}
			ver, err := ReadFlowTx(tx, vfs.Join(dir, e.Name), 0, &r)
			if err != nil || ver == 0 {
				continue // staged, mid-creation or corrupt: the driver's pass skips the same ones
			}
			spec := r.Spec
			spec.Actions = slices.Clone(spec.Actions)
			out = append(out, FlowSnap{Name: e.Name, Version: ver, Spec: spec})
		}
		return nil
	})
	return out, err
}

// FlowReader is the storage one flow read-back needs. A reader that keeps
// one (the driver keeps one per connection) parses every flow into the
// same Spec, so reading a flow costs the one string its files are copied
// into; what the reader retains is bounded by flowFilesKeep whatever the
// flows it has seen.
type FlowReader struct {
	// Spec is the flow the last ReadFlowTx parsed. Its Actions share one
	// backing array from call to call: copy them to keep them.
	Spec FlowSpec
	// Name is that flow directory's own name string, the one ReadDir
	// hands out — safe to keep without pinning a path.
	Name string

	tree vfs.TreeBuf
}

// flowFilesKeep bounds the file-list capacity a FlowReader keeps between
// reads. The schema has 12 match files, 11 action kinds and 5 others; a
// directory someone filled with thousands of stray files must not leave
// its listing behind in every reader that walked it.
const flowFilesKeep = 64

// ReadFlowTx reads the flow directory at flowPath inside tx — the mirror
// of PutFlowTx — and returns its committed version, or installed when
// there is nothing newer to act on. The version file is looked at first:
// missing, empty, unparsable or zero means the flow is not committed,
// and equal to installed means the caller already has this commit; in
// both cases the result is installed and nothing else is touched (this
// is all that the truncate+write event pair of a file-I/O commit, or a
// second mark of one commit, costs). Only otherwise is the directory
// walked, once, and parsed into r.Spec.
//
// Names are not ordered against a transaction: a reader outside one can
// list a flow in the middle of PutFlowTx's rewrite branch, after the old
// match and action files went and before the new ones came, and find its
// version unchanged on both sides. Inside a transaction that cannot
// happen, which is why the driver reads here and not through ReadFlow.
//
//yancvet:hotalloc
func ReadFlowTx(tx *vfs.Tx, flowPath string, installed uint64, r *FlowReader) (uint64, error) {
	var have [24]byte
	unless := have[:0]
	if installed != 0 {
		unless = append(strconv.AppendUint(unless, installed, 10), '\n')
	}
	name, err := tx.ReadTree(flowPath, FileVersion, unless, &r.tree)
	if err != nil {
		return 0, err
	}
	files := r.tree.Files
	if cap(files) > flowFilesKeep {
		r.tree = vfs.TreeBuf{}
	}
	if len(files) == 0 {
		return installed, nil
	}
	version, err := strconv.ParseUint(strings.TrimSpace(files[0].Data), 10, 64)
	if err != nil || version == 0 || version == installed {
		return installed, nil
	}
	r.Name = name
	r.Spec = FlowSpec{Actions: r.Spec.Actions[:0]}
	for _, f := range files[1:] {
		if err := r.Spec.applyFile(f.Name, f.Data); err != nil {
			return 0, err
		}
	}
	orderActions(r.Spec.Actions)
	return version, nil
}

// ErrFlowUnstable is returned by ReadFlow when the flow's version moved
// under every one of its read attempts, so no attempt could be validated
// against a single commit. The commit that moved the version raises its
// own watch event, so a reader driven by events loses nothing by giving
// up.
var ErrFlowUnstable = errors.New("yancfs: flow kept changing while it was read")

// ReadFlow parses a flow directory back into a FlowSpec. Unknown files
// are ignored; a missing match file is a wildcard.
//
// The version file doubles as a seqlock, which is how the paper gets
// atomic multi-file updates (§3.4): the read is retried whenever the
// version changed underneath it or a field was caught mid-rewrite, and
// only a read with the same version on both sides is returned.
func ReadFlow(p *vfs.Proc, flowPath string) (FlowSpec, error) {
	var (
		spec FlowSpec
		err  error
	)
	for attempt := 0; attempt < 8; attempt++ {
		// One reference per attempt: a flow removed and made again between
		// two attempts is a new directory, which an old reference would
		// keep reporting as gone.
		var ref vfs.DirRef
		if ref, err = p.DirRef(flowPath); err != nil {
			return spec, err
		}
		before, _ := flowVersion(p, ref)
		spec, err = readFlowOnce(p, ref)
		after, _ := flowVersion(p, ref)
		if err == nil && before == after {
			return spec, nil
		}
		if err != nil && errIsNotExist(err) {
			return spec, err
		}
		time.Sleep(time.Duration(attempt+1) * 100 * time.Microsecond)
	}
	if err == nil {
		err = ErrFlowUnstable
	}
	return FlowSpec{}, err
}

func errIsNotExist(err error) bool {
	return errors.Is(err, vfs.ErrNotExist) || errors.Is(err, vfs.ErrAccess)
}

func readFlowOnce(p *vfs.Proc, ref vfs.DirRef) (FlowSpec, error) {
	var spec FlowSpec
	entries, err := p.ReadDirAt(ref, ".")
	if err != nil {
		return spec, err
	}
	for _, e := range entries {
		field := strings.HasPrefix(e.Name, MatchPrefix) || strings.HasPrefix(e.Name, ActionPrefix)
		if !field && !isFlowMeta(e.Name) {
			continue
		}
		val, err := p.ReadFileAt(ref, e.Name)
		if err != nil {
			if field {
				return spec, err
			}
			continue
		}
		if err := spec.applyFile(e.Name, strings.TrimSpace(string(val))); err != nil {
			return spec, err
		}
	}
	orderActions(spec.Actions)
	return spec, nil
}

func isFlowMeta(name string) bool {
	switch name {
	case FilePriority, FileIdleTimeout, "timeout", FileHardTimeout, FileCookie:
		return true
	}
	return false
}

// applyFile folds one file of a flow directory into spec: a match.* file
// sets its field, an action.* file appends its action, and the metadata
// files set theirs (a malformed number reads as 0). Any other file is
// ignored; a missing match file is a wildcard.
func (spec *FlowSpec) applyFile(name, val string) error {
	switch {
	case strings.HasPrefix(name, MatchPrefix):
		f, ok := openflow.FieldByName(name[len(MatchPrefix):])
		if !ok {
			return nil
		}
		//yancvet:alloc the field parsers allocate only to report a malformed value (TestReconcileAllocs pins the rest)
		if err := spec.Match.SetField(f, val); err != nil {
			return fmt.Errorf("yancfs: %s: %w", name, err) //yancvet:alloc error path
		}
	case strings.HasPrefix(name, ActionPrefix):
		//yancvet:alloc as above
		a, err := openflow.ParseAction(name[len(ActionPrefix):], val)
		if err != nil {
			return fmt.Errorf("yancfs: %s: %w", name, err) //yancvet:alloc error path
		}
		spec.Actions = append(spec.Actions, a)
	case name == FilePriority:
		spec.Priority = parseUint16(val)
	case name == FileIdleTimeout || name == "timeout":
		spec.IdleTimeout = parseUint16(val)
	case name == FileHardTimeout:
		spec.HardTimeout = parseUint16(val)
	case name == FileCookie:
		spec.Cookie, _ = strconv.ParseUint(strings.TrimSpace(val), 10, 64)
	}
	return nil
}

func parseUint16(s string) uint16 {
	v, _ := strconv.ParseUint(strings.TrimSpace(s), 10, 16)
	return uint16(v)
}

// orderActions moves output actions after set-field actions, in place and
// keeping the relative order within each kind; a flow directory is an
// unordered set of files, so the schema fixes the only sensible order
// (transform, then forward).
func orderActions(actions []openflow.Action) {
	sets := 0 // actions[:sets] are the set-field actions placed so far
	for i, a := range actions {
		if a.Type == openflow.ActOutput {
			continue
		}
		copy(actions[sets+1:i+1], actions[sets:i])
		actions[sets] = a
		sets++
	}
}

// ListFlows returns the flow directory names under a switch path.
func ListFlows(p *vfs.Proc, switchPath string) ([]string, error) {
	entries, err := p.ReadDir(vfs.Join(switchPath, "flows"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name)
		}
	}
	return names, nil
}

// DeleteFlow removes a flow directory; the flows/ semantics make the
// rmdir recursive.
func DeleteFlow(p *vfs.Proc, flowPath string) error {
	return p.Remove(flowPath)
}
