package yancfs

import (
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
func WriteFlow(p *vfs.Proc, flowPath string, spec FlowSpec) (uint64, error) {
	if !p.Exists(flowPath) {
		if err := p.Mkdir(flowPath, 0o755); err != nil {
			return 0, err
		}
	}
	for _, f := range openflow.AllFields {
		path := vfs.Join(flowPath, MatchPrefix+f.Name())
		if spec.Match.Has(f) {
			if err := p.WriteString(path, spec.Match.FieldString(f)+"\n"); err != nil {
				return 0, err
			}
		} else if p.Exists(path) {
			if err := p.Remove(path); err != nil {
				return 0, err
			}
		}
	}
	// Remove stale action files, then write the current ones.
	entries, err := p.ReadDir(flowPath)
	if err != nil {
		return 0, err
	}
	current := make(map[string]bool, len(spec.Actions))
	for _, a := range spec.Actions {
		current[ActionPrefix+a.ActionFileName()] = true
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name, ActionPrefix) && !current[e.Name] {
			if err := p.Remove(vfs.Join(flowPath, e.Name)); err != nil {
				return 0, err
			}
		}
	}
	for _, a := range spec.Actions {
		if err := p.WriteString(vfs.Join(flowPath, ActionPrefix+a.ActionFileName()), a.ActionFileValue()+"\n"); err != nil {
			return 0, err
		}
	}
	if err := p.WriteString(vfs.Join(flowPath, FilePriority), strconv.FormatUint(uint64(spec.Priority), 10)+"\n"); err != nil {
		return 0, err
	}
	if err := p.WriteString(vfs.Join(flowPath, FileIdleTimeout), strconv.FormatUint(uint64(spec.IdleTimeout), 10)+"\n"); err != nil {
		return 0, err
	}
	if err := p.WriteString(vfs.Join(flowPath, FileHardTimeout), strconv.FormatUint(uint64(spec.HardTimeout), 10)+"\n"); err != nil {
		return 0, err
	}
	if spec.Cookie != 0 {
		if err := p.WriteString(vfs.Join(flowPath, FileCookie), strconv.FormatUint(spec.Cookie, 10)+"\n"); err != nil {
			return 0, err
		}
	}
	return CommitFlow(p, flowPath)
}

// CommitFlow atomically publishes the staged flow fields by incrementing
// the version file. Drivers watch this file; "changes are only sent to
// hardware once the version has been incremented" (§3.4).
func CommitFlow(p *vfs.Proc, flowPath string) (uint64, error) {
	versionPath := vfs.Join(flowPath, FileVersion)
	cur, err := p.ReadString(versionPath)
	if err != nil {
		cur = "0"
	}
	v, _ := strconv.ParseUint(strings.TrimSpace(cur), 10, 64)
	v++
	if err := p.WriteString(versionPath, strconv.FormatUint(v, 10)+"\n"); err != nil {
		return 0, err
	}
	return v, nil
}

// FlowVersion reads a flow's committed version (0 = staged, never
// committed).
func FlowVersion(p *vfs.Proc, flowPath string) (uint64, error) {
	s, err := p.ReadString(vfs.Join(flowPath, FileVersion))
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(strings.TrimSpace(s), 10, 64)
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
		before, _ := FlowVersion(p, flowPath)
		spec, err = readFlowOnce(p, flowPath)
		after, _ := FlowVersion(p, flowPath)
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

func readFlowOnce(p *vfs.Proc, flowPath string) (FlowSpec, error) {
	var spec FlowSpec
	entries, err := p.ReadDir(flowPath)
	if err != nil {
		return spec, err
	}
	for _, e := range entries {
		field := strings.HasPrefix(e.Name, MatchPrefix) || strings.HasPrefix(e.Name, ActionPrefix)
		if !field && !isFlowMeta(e.Name) {
			continue
		}
		val, err := p.ReadString(vfs.Join(flowPath, e.Name))
		if err != nil {
			if field {
				return spec, err
			}
			continue
		}
		if err := spec.applyFile(e.Name, val); err != nil {
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
