// Package yancfs implements the yanc file system: the paper's central
// abstraction of exposing network configuration and state as files (§3).
// It installs the semantic directory behaviours on a vfs.FS — mkdir of a
// view auto-creates its typed children, rmdir of a switch is recursive,
// a port's "peer" symlink must point at another port — and provides the
// flow commit protocol (stage fields, bump "version") that drivers key
// on, plus per-application packet-in event buffers (§3.5).
//
// The file system is conventionally mounted at /net; paths here are
// relative to that mount point.
package yancfs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"yanc/internal/vfs"
)

// Top-level directories (Figure 2).
const (
	DirSwitches = "/switches"
	DirHosts    = "/hosts"
	DirViews    = "/views"
	DirEvents   = "/events"
)

// Well-known file names inside flow directories (Figure 3).
const (
	FilePriority    = "priority"
	FileIdleTimeout = "idle_timeout"
	FileHardTimeout = "hard_timeout"
	FileCookie      = "cookie"
	FileVersion     = "version"
	MatchPrefix     = "match."
	ActionPrefix    = "action."
)

// CounterSource supplies live counters for a switch; the driver binds one
// so that reading a counters/ file pulls fresh hardware state, the way
// procfs files read kernel state.
type CounterSource interface {
	FlowCounters(flowName string) (packets, bytes uint64, ok bool)
	PortCounters(portNo uint32) (PortCounterSet, bool)
}

// PortCounterSet is the counter set exposed under a port's counters/.
type PortCounterSet struct {
	RxPackets uint64
	TxPackets uint64
	RxBytes   uint64
	TxBytes   uint64
	RxDropped uint64
	TxDropped uint64
}

// FS is a yanc file system instance.
type FS struct {
	vfs  *vfs.FS
	root *vfs.Proc

	mu       sync.RWMutex
	counters map[string]CounterSource // switch path -> source

	// counterFiles are the two read-only synthetic files of a flow's
	// counters/, which pull live hardware counters. The readers work out
	// whose counters they are from the path they were opened through, so
	// one file set of them serves every flow: counterSets holds one per
	// creator credential (stat ownership reads as if each flow had its
	// own), built on first use. Both ways of making a flow attach it — the
	// flows/ mkdir hook and PutFlowTx — and both run inside a writing
	// transaction, whose tree write lock guards the map.
	counterFiles []vfs.FileData
	counterSets  map[[2]int]*vfs.FileSet

	// ev holds the packet-in delivery state: cached subscriber lists,
	// payload-block refcounts, and the /.proc/events counters (events.go).
	ev eventState
}

// New builds an empty yanc file system with the full top-level hierarchy
// and semantics installed.
func New() (*FS, error) {
	y := &FS{
		vfs:         vfs.New(),
		counters:    make(map[string]CounterSource),
		counterSets: make(map[[2]int]*vfs.FileSet),
	}
	y.root = y.vfs.RootProc()
	y.vfs.SetOwner(y) // PutFlowTx reaches the counters set through its transaction
	y.counterFiles = []vfs.FileData{
		{Name: "packets", Synth: &vfs.Synthetic{
			ReadPath: func(path string) ([]byte, error) { return y.readFlowCounter(path, false) },
		}},
		{Name: "bytes", Synth: &vfs.Synthetic{
			ReadPath: func(path string) ([]byte, error) { return y.readFlowCounter(path, true) },
		}},
	}
	err := y.vfs.WithTx(func(tx *vfs.Tx) error {
		return y.installRegion(tx, "/")
	})
	if err != nil {
		return nil, err
	}
	return y, nil
}

// VFS returns the underlying virtual file system.
//
//yancvet:hotalloc
func (y *FS) VFS() *vfs.FS { return y.vfs }

// Root returns a superuser process context on the file system.
func (y *FS) Root() *vfs.Proc { return y.root }

// Proc returns a process context with the given credential.
func (y *FS) Proc(cred vfs.Cred) *vfs.Proc { return y.vfs.Proc(cred) }

// installRegion creates the four typed children of a region (the root or
// a view) and installs their semantics. Views nest arbitrarily (Figure 2
// shows views/management-net itself holding hosts/switches/views), so
// this is reused for every created view.
func (y *FS) installRegion(tx *vfs.Tx, base string) error {
	for _, d := range []string{DirSwitches, DirHosts, DirViews, DirEvents} {
		p := vfs.Join(base, d)
		if !tx.Exists(p) {
			if err := tx.Mkdir(p, 0o755, 0, 0); err != nil {
				return err
			}
		}
	}
	if base == "/" {
		// The four top-level object directories may not be removed.
		if err := tx.SetSemantics("/", &vfs.DirSemantics{
			Protected: map[string]bool{"switches": true, "hosts": true, "views": true, "events": true},
		}); err != nil {
			return err
		}
	}
	if err := tx.SetSemantics(vfs.Join(base, DirSwitches), &vfs.DirSemantics{
		RecursiveRmdir: true,
		OnMkdir:        y.onSwitchMkdir,
	}); err != nil {
		return err
	}
	if err := tx.SetSemantics(vfs.Join(base, DirViews), &vfs.DirSemantics{
		RecursiveRmdir: true,
		OnMkdir: func(tx *vfs.Tx, dir, name string) error {
			return y.installRegion(tx, vfs.Join(dir, name))
		},
	}); err != nil {
		return err
	}
	return tx.SetSemantics(vfs.Join(base, DirEvents), &vfs.DirSemantics{
		RecursiveRmdir: true,
		OnMkdir:        y.onEventBufferMkdir,
		OnRemove:       y.onEventBufferRemove,
	})
}

// onSwitchMkdir populates a new switch directory with its object skeleton
// (Figure 3): counters/, flows/, ports/ plus the info files.
func (y *FS) onSwitchMkdir(tx *vfs.Tx, dir, name string) error {
	base := vfs.Join(dir, name)
	for _, sub := range []string{"counters", "flows", "ports"} {
		if err := tx.Mkdir(vfs.Join(base, sub), 0o755, 0, 0); err != nil {
			return err
		}
	}
	for file, content := range map[string]string{
		"actions":      "output,set_vlan_vid,set_vlan_pcp,strip_vlan,set_dl_src,set_dl_dst,set_nw_src,set_nw_dst,set_nw_tos,set_tp_src,set_tp_dst\n",
		"capabilities": "flow_stats,port_stats\n",
		"id":           "0\n",
		"num_buffers":  "0\n",
		"num_tables":   "1\n",
		"protocol":     "\n",
	} {
		if err := tx.WriteFile(vfs.Join(base, file), []byte(content), 0o644, 0, 0); err != nil {
			return err
		}
	}
	// flows/: each child is a flow object; removal is recursive; a new
	// flow directory gets its version file staged at 0 (uncommitted).
	if err := tx.SetSemantics(vfs.Join(base, "flows"), &vfs.DirSemantics{
		RecursiveRmdir: true,
		OnMkdir:        y.onFlowMkdir,
	}); err != nil {
		return err
	}
	// ports/: each child is a port object with peer-symlink validation.
	if err := tx.SetSemantics(vfs.Join(base, "ports"), &vfs.DirSemantics{
		RecursiveRmdir: true,
		OnMkdir:        y.onPortMkdir,
	}); err != nil {
		return err
	}
	switchPath := base
	y.bindSwitchCounters(tx, switchPath)
	return nil
}

// onFlowMkdir stages a new flow: counters/ and version=0. Match and
// action files are created by the application; absence of a match file
// means wildcard (§3.4).
func (y *FS) onFlowMkdir(tx *vfs.Tx, dir, name string) error {
	base := vfs.Join(dir, name)
	// The skeleton belongs to whoever created the flow, so an application
	// that may mkdir in flows/ can also stage fields and commit.
	cred := tx.Creator()
	set, err := y.flowCounters(tx, cred.UID, cred.GID)
	if err != nil {
		return err
	}
	ref, err := tx.DirRef(base)
	if err != nil {
		return err
	}
	if err := tx.AttachFileSet(set, []vfs.DirRef{ref}, "counters", 0o755, cred.UID, cred.GID, nil); err != nil {
		return err
	}
	return tx.WriteFile(base+"/"+FileVersion, []byte("0\n"), 0o644, cred.UID, cred.GID)
}

// flowCounters returns the counters/ file set of the flows uid:gid
// makes, building it on first use. tx must be a writing transaction.
func (y *FS) flowCounters(tx *vfs.Tx, uid, gid int) (*vfs.FileSet, error) {
	key := [2]int{uid, gid}
	if set := y.counterSets[key]; set != nil {
		return set, nil
	}
	set, err := tx.NewFileSet(y.counterFiles, 0o444, uid, gid)
	if err != nil {
		return nil, err
	}
	y.counterSets[key] = set
	return set, nil
}

// onPortMkdir populates a new port directory. The port number is the
// directory name.
func (y *FS) onPortMkdir(tx *vfs.Tx, dir, name string) error {
	base := vfs.Join(dir, name)
	if err := tx.Mkdir(vfs.Join(base, "counters"), 0o755, 0, 0); err != nil {
		return err
	}
	for file, content := range map[string]string{
		"config.port_down":   "0\n",
		"config.port_status": "up\n",
		"hw_addr":            "00:00:00:00:00:00\n",
		"name":               name + "\n",
		"speed":              "0\n",
	} {
		if err := tx.WriteFile(vfs.Join(base, file), []byte(content), 0o644, 0, 0); err != nil {
			return err
		}
	}
	// The peer symlink, when created, must point at another port
	// directory ("It is currently an error to point this symbolic link at
	// anything other than a port", §3.3).
	if err := tx.SetSemantics(base, &vfs.DirSemantics{
		ValidateSymlink: func(tx *vfs.Tx, d, linkName, target string) error {
			if linkName != "peer" {
				return nil
			}
			resolved := target
			if !strings.HasPrefix(target, "/") {
				resolved = vfs.Join(d, target)
			}
			if !tx.IsDir(resolved) || !isPortPath(resolved) {
				return fmt.Errorf("peer must point at a port: %w", vfs.ErrInvalid)
			}
			return nil
		},
	}); err != nil {
		return err
	}
	switchPath := vfs.Dir(vfs.Dir(base))
	portName := name
	y.bindPortCounters(tx, switchPath, base, portName)
	return nil
}

// isPortPath reports whether p looks like .../ports/<n>.
func isPortPath(p string) bool {
	return vfs.Base(vfs.Dir(p)) == "ports"
}

// BindCounters attaches a live counter source to a switch path (e.g.
// "/switches/sw1"). Reads of that switch's counters/ files then pull
// from the source.
func (y *FS) BindCounters(switchPath string, src CounterSource) {
	y.mu.Lock()
	defer y.mu.Unlock()
	y.counters[vfs.Clean(switchPath)] = src
}

func (y *FS) counterSource(switchPath string) CounterSource {
	y.mu.RLock()
	defer y.mu.RUnlock()
	return y.counters[switchPath]
}

func (y *FS) bindSwitchCounters(tx *vfs.Tx, switchPath string) {
	for _, name := range []string{"rx_packets", "tx_packets", "rx_bytes", "tx_bytes"} {
		file := name
		//yancvet:allow errdrop counters dir was created earlier in this same Tx, so the bind cannot miss
		_ = tx.SetSynthetic(vfs.Join(switchPath, "counters", file), &vfs.Synthetic{
			Read: func() ([]byte, error) {
				src := y.counterSource(switchPath)
				if src == nil {
					return []byte("0\n"), nil
				}
				var total uint64
				// Aggregate over ports the source knows about (1..64).
				for no := uint32(1); no <= 64; no++ {
					pc, ok := src.PortCounters(no)
					if !ok {
						continue
					}
					switch file {
					case "rx_packets":
						total += pc.RxPackets
					case "tx_packets":
						total += pc.TxPackets
					case "rx_bytes":
						total += pc.RxBytes
					case "tx_bytes":
						total += pc.TxBytes
					}
				}
				return []byte(strconv.FormatUint(total, 10) + "\n"), nil
			},
		}, 0o444, 0, 0)
	}
}

// readFlowCounter serves a flow's counters/packets or counters/bytes,
// opened through path: .../<switch>/flows/<flow>/counters/<file>. The
// switch and the flow are read off the path at every open, so a renamed
// flow directory asks the counter source for its present name; the value
// is zero while no source is bound or the source does not know the flow.
func (y *FS) readFlowCounter(path string, wantBytes bool) ([]byte, error) {
	flowPath := vfs.Dir(vfs.Dir(path))
	src := y.counterSource(vfs.Dir(vfs.Dir(flowPath)))
	if src == nil {
		return []byte("0\n"), nil
	}
	packets, bytes, ok := src.FlowCounters(vfs.Base(flowPath))
	if !ok {
		return []byte("0\n"), nil
	}
	v := packets
	if wantBytes {
		v = bytes
	}
	return append(strconv.AppendUint(nil, v, 10), '\n'), nil
}

func (y *FS) bindPortCounters(tx *vfs.Tx, switchPath, portPath, portName string) {
	no64, err := strconv.ParseUint(portName, 10, 32)
	if err != nil {
		return // named ports get no live counters
	}
	no := uint32(no64)
	for _, name := range []string{"rx_packets", "tx_packets", "rx_bytes", "tx_bytes", "rx_dropped", "tx_dropped"} {
		file := name
		//yancvet:allow errdrop counters dir was created earlier in this same Tx, so the bind cannot miss
		_ = tx.SetSynthetic(vfs.Join(portPath, "counters", file), &vfs.Synthetic{
			Read: func() ([]byte, error) {
				src := y.counterSource(switchPath)
				if src == nil {
					return []byte("0\n"), nil
				}
				pc, ok := src.PortCounters(no)
				if !ok {
					return []byte("0\n"), nil
				}
				var v uint64
				switch file {
				case "rx_packets":
					v = pc.RxPackets
				case "tx_packets":
					v = pc.TxPackets
				case "rx_bytes":
					v = pc.RxBytes
				case "tx_bytes":
					v = pc.TxBytes
				case "rx_dropped":
					v = pc.RxDropped
				case "tx_dropped":
					v = pc.TxDropped
				}
				return []byte(strconv.FormatUint(v, 10) + "\n"), nil
			},
		}, 0o444, 0, 0)
	}
}

// SwitchPath returns the path of a switch in the master region.
func SwitchPath(name string) string { return vfs.Join(DirSwitches, name) }

// FlowPath returns the path of a flow under a switch in the master region.
func FlowPath(switchName, flowName string) string {
	return vfs.Join(DirSwitches, switchName, "flows", flowName)
}

// PortPath returns the path of a port under a switch in the master region.
func PortPath(switchName string, port uint32) string {
	return vfs.Join(DirSwitches, switchName, "ports", strconv.FormatUint(uint64(port), 10))
}
