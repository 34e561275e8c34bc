package vfs

import (
	"io/fs"
	"time"
)

// NodeKind distinguishes the three object kinds the yanc schema uses.
type NodeKind uint8

const (
	KindFile NodeKind = iota
	KindDir
	KindSymlink
)

func (k NodeKind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindDir:
		return "dir"
	case KindSymlink:
		return "symlink"
	default:
		return "unknown"
	}
}

// FileMode holds the permission bits (rwxrwxrwx). Kind is carried
// separately on the inode; the exported Stat merges the two into an
// io/fs.FileMode for interoperability with the standard library.
type FileMode uint16

const (
	ModeSetUID FileMode = 0o4000
	ModeSetGID FileMode = 0o2000
	ModeSticky FileMode = 0o1000
)

// Perm returns just the rwx permission bits.
func (m FileMode) Perm() FileMode { return m & 0o777 }

// Stat describes an inode, analogous to struct stat.
type Stat struct {
	Ino     uint64
	Kind    NodeKind
	Mode    FileMode
	UID     int
	GID     int
	Nlink   int
	Size    int64
	Mtime   time.Time
	Name    string // base name at the path used for the lookup
	Target  string // symlink target, if Kind == KindSymlink
	Version uint64 // bumped on every data or metadata change
}

// IsDir reports whether the stat describes a directory.
func (s Stat) IsDir() bool { return s.Kind == KindDir }

// FSMode converts to an io/fs.FileMode.
func (s Stat) FSMode() fs.FileMode {
	m := fs.FileMode(s.Mode.Perm())
	switch s.Kind {
	case KindDir:
		m |= fs.ModeDir
	case KindSymlink:
		m |= fs.ModeSymlink
	}
	if s.Mode&ModeSetUID != 0 {
		m |= fs.ModeSetuid
	}
	if s.Mode&ModeSetGID != 0 {
		m |= fs.ModeSetgid
	}
	if s.Mode&ModeSticky != 0 {
		m |= fs.ModeSticky
	}
	return m
}

// DirEntry is a single directory listing entry.
type DirEntry struct {
	Name string
	Kind NodeKind
	Ino  uint64
}

// IsDir reports whether the entry is a directory.
func (d DirEntry) IsDir() bool { return d.Kind == KindDir }

// Cred identifies the subject performing file-system operations, the way a
// process's uid/gid/groups do under Linux. UID 0 bypasses permission
// checks, matching the superuser convention the paper's examples rely on
// ("# echo 1 > port_2/config.port_down" runs as root).
type Cred struct {
	UID    int
	GID    int
	Groups []int
}

// Root is the superuser credential.
var Root = Cred{UID: 0, GID: 0}

func (c Cred) inGroup(gid int) bool {
	if c.GID == gid {
		return true
	}
	for _, g := range c.Groups {
		if g == gid {
			return true
		}
	}
	return false
}

// accessWant is the permission being requested against an inode.
type accessWant uint8

const (
	wantRead  accessWant = 4
	wantWrite accessWant = 2
	wantExec  accessWant = 1
)

// allows implements the classic Unix owner/group/other check. It reads
// only atomic permission state, so it is safe during path resolution with
// no lock held.
func allows(st *inode, c Cred, want accessWant) bool {
	mode := st.loadMode()
	if c.UID == 0 {
		// Root: exec still requires some x bit on files, like Linux.
		if want == wantExec && st.kind() == KindFile && mode&0o111 == 0 {
			return false
		}
		return true
	}
	var shift uint
	switch {
	case c.UID == st.loadUID():
		shift = 6
	case c.inGroup(st.loadGID()):
		shift = 3
	default:
		shift = 0
	}
	bits := uint8(mode>>shift) & 7
	return bits&uint8(want) == uint8(want)
}
