package yancfs

import (
	"errors"
	"fmt"
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

// flowReader abstracts where flow files are read from: a Proc (one lock
// acquisition per call) or a read transaction (one lock for a whole
// multi-flow snapshot).
type flowReader interface {
	ReadDir(path string) ([]vfs.DirEntry, error)
	ReadString(path string) (string, error)
}

// txReader adapts a read transaction to flowReader.
type txReader struct{ tx *vfs.Tx }

func (r txReader) ReadDir(path string) ([]vfs.DirEntry, error) { return r.tx.ReadDir(path) }

func (r txReader) ReadString(path string) (string, error) {
	b, err := r.tx.ReadFile(path)
	return string(b), err
}

// FlowVersion reads a flow's committed version (0 = staged, never
// committed).
func FlowVersion(p *vfs.Proc, flowPath string) (uint64, error) {
	return flowVersion(p, flowPath)
}

func flowVersion(r flowReader, flowPath string) (uint64, error) {
	s, err := r.ReadString(vfs.Join(flowPath, FileVersion))
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
// can commit mid-snapshot. This is what driver resync-on-reattach wants:
// the hardware receives the flow table as it existed at one instant,
// instead of a stitched-together sequence of per-file reads.
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
		r := txReader{tx}
		for _, e := range entries {
			if !e.IsDir() || strings.HasPrefix(e.Name, ".") {
				continue
			}
			fp := vfs.Join(dir, e.Name)
			ver, err := flowVersion(r, fp)
			if err != nil || ver == 0 {
				continue // staged or mid-creation: the commit watch will sync it
			}
			spec, err := readFlowOnce(r, fp)
			if err != nil {
				continue // corrupt entry: skip, same policy as ReadFlow tolerance
			}
			out = append(out, FlowSnap{Name: e.Name, Version: ver, Spec: spec})
		}
		return nil
	})
	return out, err
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

func readFlowOnce(p flowReader, flowPath string) (FlowSpec, error) {
	var spec FlowSpec
	entries, err := p.ReadDir(flowPath)
	if err != nil {
		return spec, err
	}
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Name, MatchPrefix):
			fieldName := strings.TrimPrefix(e.Name, MatchPrefix)
			f, ok := openflow.FieldByName(fieldName)
			if !ok {
				continue
			}
			val, err := p.ReadString(vfs.Join(flowPath, e.Name))
			if err != nil {
				return spec, err
			}
			if err := spec.Match.SetField(f, val); err != nil {
				return spec, fmt.Errorf("yancfs: %s: %w", e.Name, err)
			}
		case strings.HasPrefix(e.Name, ActionPrefix):
			actName := strings.TrimPrefix(e.Name, ActionPrefix)
			val, err := p.ReadString(vfs.Join(flowPath, e.Name))
			if err != nil {
				return spec, err
			}
			a, err := openflow.ParseAction(actName, val)
			if err != nil {
				return spec, fmt.Errorf("yancfs: %s: %w", e.Name, err)
			}
			spec.Actions = append(spec.Actions, a)
		case e.Name == FilePriority:
			spec.Priority = readUint16(p, vfs.Join(flowPath, e.Name))
		case e.Name == FileIdleTimeout || e.Name == "timeout":
			spec.IdleTimeout = readUint16(p, vfs.Join(flowPath, e.Name))
		case e.Name == FileHardTimeout:
			spec.HardTimeout = readUint16(p, vfs.Join(flowPath, e.Name))
		case e.Name == FileCookie:
			s, _ := p.ReadString(vfs.Join(flowPath, e.Name))
			spec.Cookie, _ = strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		}
	}
	// Deterministic action order: outputs last, preserving relative order
	// otherwise, so rewrites happen before forwarding.
	spec.Actions = orderActions(spec.Actions)
	return spec, nil
}

func readUint16(p flowReader, path string) uint16 {
	s, err := p.ReadString(path)
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseUint(strings.TrimSpace(s), 10, 16)
	return uint16(v)
}

// orderActions moves output actions after set-field actions; a flow
// directory is an unordered set of files, so the schema fixes the only
// sensible order (transform, then forward).
func orderActions(actions []openflow.Action) []openflow.Action {
	var sets, outs []openflow.Action
	for _, a := range actions {
		if a.Type == openflow.ActOutput {
			outs = append(outs, a)
		} else {
			sets = append(sets, a)
		}
	}
	return append(sets, outs...)
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
