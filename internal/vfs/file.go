package vfs

import (
	"errors"
	"io"
	"math"
	"sync"
)

// Open flags, matching the os package values where the paper's examples
// would use open(2).
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
	O_RDWR   = 0x2
	O_APPEND = 0x400
	O_CREATE = 0x40
	O_EXCL   = 0x80
	O_TRUNC  = 0x200
)

// File is an open file handle. Handles on regular files read and write
// the inode directly; handles on synthetic files snapshot on open and
// flush on close, the way a procfs read/write behaves.
type File struct {
	mu     sync.Mutex
	proc   *Proc
	node   *inode
	path   string
	flags  int
	pos    int64
	closed bool
	wrote  bool

	// synthetic buffering. synth is the provider captured at open time
	// (the node's attachment may be swapped while the handle is open).
	synth         *Synthetic
	synthBuf      []byte
	synthMode     bool
	needSynthRead bool
}

// Open opens path read-only.
func (p *Proc) Open(path string) (*File, error) {
	return p.OpenFile(path, O_RDONLY, 0)
}

// Create creates or truncates path for writing with the given mode.
func (p *Proc) Create(path string, mode FileMode) (*File, error) {
	return p.OpenFile(path, O_RDWR|O_CREATE|O_TRUNC, mode)
}

// errNeedCreate routes an open from the read-locked fast path to the
// write-locked slow path when the file must be created.
var errNeedCreate = errors.New("vfs: open needs create")

// OpenFile is the generalized open call. Opens of existing files run
// under the tree read lock (the hot path for every flow read/write);
// only an open that has to create the file takes the tree write lock.
func (p *Proc) OpenFile(path string, flags int, mode FileMode) (*File, error) {
	if err := p.charge("open", 0); err != nil {
		return nil, err
	}
	p.fs.stats.opens.Add(1)
	defer p.fs.observe(LatOpen, latStart())

	f, events, err := p.openFast(path, flags)
	if errors.Is(err, errNeedCreate) {
		f, events, err = p.openSlow(path, flags, mode)
	}
	p.fs.watches.dispatch(events)
	if err != nil {
		return nil, err
	}
	// Synthetic content is produced outside the tree lock: a provider may
	// perform slow work (the OpenFlow driver queries the switch here) and
	// must not stall unrelated file-system operations.
	if f.needSynthRead {
		data, rerr := f.synth.Read()
		if rerr != nil {
			return nil, pathErr("open", path, rerr)
		}
		f.synthBuf = data
	}
	return f, nil
}

// openFast handles opens that do not create. A clean path in the root
// namespace goes through the lock-free resolver (openRCU); everything
// else — chroots, uncleaned paths, symlinks, generation-conflict retries
// — takes the tree read lock, so opens of distinct existing files still
// proceed in parallel at worst. Returns errNeedCreate when the path does
// not exist and O_CREATE was given.
func (p *Proc) openFast(path string, flags int) (*File, []Event, error) {
	fs := p.fs
	if p.root == fs.root && isClean(path) {
		if f, events, err, ok := p.openRCU(path, flags); ok {
			return f, events, err
		}
	}
	fs.lockCtr.resolveFallback.Add(1)
	fs.rlockTree()
	defer fs.runlockTree()
	parent, name, node, err := fs.resolve(p.cred, path, p.opts(true))
	if err != nil {
		return nil, nil, pathErr("open", path, err)
	}
	if node == nil {
		if flags&O_CREATE == 0 {
			return nil, nil, pathErr("open", path, ErrNotExist)
		}
		return nil, nil, errNeedCreate
	}
	if node.isDir() {
		// Checked before pathTo: the root has no parent entry to name.
		return nil, nil, pathErr("open", path, ErrIsDir)
	}
	// The handle records the real root-absolute path, not the caller's
	// (possibly chroot-relative) spelling: events carry this path, and
	// watchers outside the namespace must see the true location.
	return p.openExisting(node, pathTo(parent, name), flags)
}

// openRCU is the lock-free open fast path: a canonical, non-chrooted
// path that resolves without symlinks, "..", or a generation-conflict
// retry opens with no tree lock at all. ok=false sends the caller to the
// read-locked path (which handles all of the above). The caller's path
// spelling doubles as the handle's real path: it is canonical, the Proc
// is rooted at the fs root, and no symlink was crossed.
func (p *Proc) openRCU(path string, flags int) (*File, []Event, error, bool) {
	fs := p.fs
	node, st, err := fs.walkRCU(p.cred, path, resolveOpts{followLast: true, root: fs.root})
	if st == rcuRetry || st == rcuBail {
		return nil, nil, nil, false
	}
	fs.lockCtr.resolveLockfree.Add(1)
	if err != nil {
		return nil, nil, pathErr("open", path, err), true
	}
	if node == nil {
		if flags&O_CREATE == 0 {
			return nil, nil, pathErr("open", path, ErrNotExist), true
		}
		return nil, nil, errNeedCreate, true
	}
	f, events, err := p.openExisting(node, path, flags)
	return f, events, err, true
}

// openExisting applies the existing-file open rules (flag and permission
// checks, synthetic capture, O_TRUNC) and builds the handle. It requires
// no tree lock: permissions are atomics, the synthetic attachment is
// atomic, and truncation takes the node's stripe.
func (p *Proc) openExisting(node *inode, realPath string, flags int) (*File, []Event, error) {
	fs := p.fs
	if flags&O_CREATE != 0 && flags&O_EXCL != 0 {
		return nil, nil, pathErr("open", realPath, ErrExist)
	}
	if node.isDir() {
		return nil, nil, pathErr("open", realPath, ErrIsDir)
	}
	wantsWrite := flags&(O_WRONLY|O_RDWR) != 0
	wantsRead := flags&O_WRONLY == 0
	if wantsWrite && !allows(node, p.cred, wantWrite) {
		return nil, nil, pathErr("open", realPath, ErrAccess)
	}
	if wantsRead && !allows(node, p.cred, wantRead) {
		return nil, nil, pathErr("open", realPath, ErrAccess)
	}
	f := &File{proc: p, node: node, path: realPath, flags: flags}
	var events []Event
	if syn := node.loadSynth(); syn != nil {
		f.synth = syn
		f.synthMode = true
		f.needSynthRead = wantsRead && syn.Read != nil
	} else if flags&O_TRUNC != 0 {
		s := fs.lockNode(node)
		node.data = node.data[:0]
		node.touchM(fs.now())
		s.mu.Unlock()
		events = []Event{{Op: OpWrite, Path: f.path}}
	}
	return f, events, nil
}

// openSlow creates the file under the tree write lock, running the parent
// directory's OnCreate hook. It re-resolves from scratch: another open may
// have created the file between the fast path's read lock and here.
func (p *Proc) openSlow(path string, flags int, mode FileMode) (*File, []Event, error) {
	fs := p.fs
	fs.lockTree()
	tx := &Tx{fs: fs}
	f, err := func() (*File, error) {
		parent, name, node, err := fs.resolve(p.cred, path, p.opts(true))
		if err != nil {
			return nil, pathErr("open", path, err)
		}
		created := false
		if node == nil {
			if !allows(parent, p.cred, wantWrite) {
				return nil, pathErr("open", path, ErrAccess)
			}
			node = fs.newInode(KindFile, mode.Perm(), p.cred.UID, p.cred.GID)
			name = internName(name)
			parent.cowInsert(name, node)
			fs.touchMS(parent, fs.now())
			created = true
			fs.stats.creates.Add(1)
			tx.queue(Event{Op: OpCreate, Path: pathTo(parent, name)})
		} else {
			// Lost the create race: apply the existing-file rules.
			if flags&O_CREATE != 0 && flags&O_EXCL != 0 {
				return nil, pathErr("open", path, ErrExist)
			}
			if node.isDir() {
				return nil, pathErr("open", path, ErrIsDir)
			}
		}
		wantsWrite := flags&(O_WRONLY|O_RDWR) != 0
		wantsRead := flags&O_WRONLY == 0
		if wantsWrite && !allows(node, p.cred, wantWrite) {
			return nil, pathErr("open", path, ErrAccess)
		}
		if wantsRead && !created && !allows(node, p.cred, wantRead) {
			return nil, pathErr("open", path, ErrAccess)
		}
		f := &File{proc: p, node: node, path: pathTo(parent, name), flags: flags}
		if syn := node.loadSynth(); syn != nil {
			f.synth = syn
			f.synthMode = true
			f.needSynthRead = wantsRead && syn.Read != nil
		} else if flags&O_TRUNC != 0 && !created {
			s := fs.lockNode(node)
			node.data = node.data[:0]
			node.touchM(fs.now())
			s.mu.Unlock()
			tx.queue(Event{Op: OpWrite, Path: f.path})
		}
		if created && parent.dir.sem != nil && parent.dir.sem.OnCreate != nil {
			if herr := parent.dir.sem.OnCreate(tx, pathOf(parent), name); herr != nil {
				parent.cowDelete(name)
				tx.events = tx.events[:0]
				return nil, pathErr("open", path, herr)
			}
		}
		return f, nil
	}()
	events := tx.events
	fs.unlockTree()
	return f, events, err
}

// Name returns the path the file was opened with.
func (f *File) Name() string { return f.path }

// Read reads from the current offset.
func (f *File) Read(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, pathErr("read", f.path, ErrClosed)
	}
	if f.flags&O_WRONLY != 0 {
		return 0, pathErr("read", f.path, ErrBadHandle)
	}
	fs := f.proc.fs
	fs.stats.reads.Add(1)
	defer fs.observe(LatRead, latStart())
	if f.synthMode {
		src := f.synthBuf[min(f.pos, int64(len(f.synthBuf))):]
		if err := f.proc.charge("read", min(len(b), len(src))); err != nil {
			return 0, err
		}
		if len(src) == 0 {
			return 0, io.EOF
		}
		n := copy(b, src)
		f.pos += int64(n)
		return n, nil
	}
	// The limiter is billed what the read can return, not the buffer it
	// was handed, and admits the read before anything is copied. It is
	// caller-supplied code, so it runs between two stripe holds rather
	// than under one; the copy is clamped to what was admitted.
	admitted, err := f.proc.admitRead(f.node, f.pos, len(b))
	if err != nil {
		return 0, err
	}
	// Stripe-only: content I/O on an open handle needs no tree lock at
	// any level (the node was pinned at open time).
	s := fs.rlockContent(f.node)
	src := f.node.data
	if f.pos < int64(len(src)) {
		n := copy(b[:admitted], src[f.pos:])
		f.pos += int64(n)
		s.mu.RUnlock()
		return n, nil
	}
	s.mu.RUnlock()
	return 0, io.EOF
}

// admitRead charges the limiter for a read of at most want bytes of n's
// content from offset off and returns the byte count it admitted: what
// such a read can return right now. Without a limiter every byte is
// admitted and the size peek is skipped.
func (p *Proc) admitRead(n *inode, off int64, want int) (int, error) {
	if p.limiter == nil {
		return want, nil
	}
	s := p.fs.rlockNode(n)
	avail := int64(len(n.data)) - off
	s.mu.RUnlock()
	want = int(max(0, min(int64(want), avail)))
	return want, p.charge("read", want)
}

// Write writes at the current offset (or the end, with O_APPEND).
func (f *File) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, pathErr("write", f.path, ErrClosed)
	}
	if f.flags&(O_WRONLY|O_RDWR) == 0 {
		return 0, pathErr("write", f.path, ErrBadHandle)
	}
	f.proc.fs.stats.writes.Add(1)
	defer f.proc.fs.observe(LatWrite, latStart())
	if err := f.proc.charge("write", len(b)); err != nil {
		return 0, err
	}
	f.wrote = true
	if f.synthMode {
		if f.flags&O_APPEND != 0 {
			f.pos = int64(len(f.synthBuf))
		}
		f.synthBuf = writeAt(f.synthBuf, b, f.pos)
		f.pos += int64(len(b))
		return len(b), nil
	}
	fs := f.proc.fs
	s := fs.lockNode(f.node)
	n := f.node
	if f.flags&O_APPEND != 0 {
		f.pos = int64(len(n.data))
	}
	if f.pos == 0 && int64(len(b)) >= int64(len(n.data)) {
		// Whole-content replace — the dominant shape for single-value
		// attribute files. Small repeated payloads are interned and
		// shared copy-on-write across inodes.
		if d, ok := internBytes(b); ok {
			n.data, n.dataShared = d, true
		} else {
			if n.dataShared {
				n.data, n.dataShared = nil, false
			}
			n.data = writeAt(n.data, b, 0)
		}
	} else {
		if n.dataShared {
			// Copy-on-write: never scribble on a shared interned slice.
			n.data = append([]byte(nil), n.data...)
			n.dataShared = false
		}
		n.data = writeAt(n.data, b, f.pos)
	}
	f.pos += int64(len(b))
	n.touchM(fs.now())
	s.mu.Unlock()
	fs.watches.dispatch([]Event{{Op: OpWrite, Path: f.path}})
	return len(b), nil
}

func writeAt(dst, b []byte, pos int64) []byte {
	end := pos + int64(len(b))
	if int64(len(dst)) < end {
		grown := make([]byte, end)
		copy(grown, dst)
		dst = grown
	}
	copy(dst[pos:end], b)
	return dst
}

// WriteString writes a string.
func (f *File) WriteString(s string) (int, error) { return f.Write([]byte(s)) }

// Seek sets the offset for the next Read or Write.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, pathErr("seek", f.path, ErrClosed)
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		if f.synthMode {
			base = int64(len(f.synthBuf))
		} else {
			fs := f.proc.fs
			s := fs.rlockNode(f.node)
			base = int64(len(f.node.data))
			s.mu.RUnlock()
		}
	default:
		return 0, pathErr("seek", f.path, ErrInvalid)
	}
	np := base + offset
	if np < 0 {
		return 0, pathErr("seek", f.path, ErrInvalid)
	}
	f.pos = np
	return np, nil
}

// Truncate resizes the file.
func (f *File) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return pathErr("truncate", f.path, ErrClosed)
	}
	if f.flags&(O_WRONLY|O_RDWR) == 0 {
		return pathErr("truncate", f.path, ErrBadHandle)
	}
	if f.synthMode {
		if size <= int64(len(f.synthBuf)) {
			f.synthBuf = f.synthBuf[:size]
		} else {
			f.synthBuf = append(f.synthBuf, make([]byte, size-int64(len(f.synthBuf)))...)
		}
		f.wrote = true
		return nil
	}
	fs := f.proc.fs
	s := fs.lockNode(f.node)
	if size <= int64(len(f.node.data)) {
		// A reslice never writes, so a shared slice may stay shared.
		f.node.data = f.node.data[:size]
	} else {
		if f.node.dataShared {
			f.node.data = append([]byte(nil), f.node.data...)
			f.node.dataShared = false
		}
		f.node.data = append(f.node.data, make([]byte, size-int64(len(f.node.data)))...)
	}
	f.node.touchM(fs.now())
	s.mu.Unlock()
	fs.watches.dispatch([]Event{{Op: OpWrite, Path: f.path}})
	return nil
}

// Stat describes the open file.
func (f *File) Stat() (Stat, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return Stat{}, pathErr("stat", f.path, ErrClosed)
	}
	fs := f.proc.fs
	s := fs.rlockNode(f.node)
	defer s.mu.RUnlock()
	return statOf(f.node, Base(f.path)), nil
}

// Close releases the handle. For synthetic files opened for writing this
// is the moment the buffered content is handed to the Write hook; for
// regular files a CloseWrite event fires if the handle wrote, which is
// what fanotify-style consumers (drivers) key on.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return pathErr("close", f.path, ErrClosed)
	}
	f.closed = true
	if f.synthMode && f.wrote {
		if f.synth.Write == nil {
			return pathErr("close", f.path, ErrPerm)
		}
		if err := f.synth.Write(f.synthBuf); err != nil {
			return pathErr("close", f.path, err)
		}
	}
	if f.wrote {
		f.proc.fs.watches.dispatch([]Event{{Op: OpCloseWrite, Path: f.path}})
	}
	return nil
}

// readWhole is the handle-free whole-file read: it resolves path
// lock-free, does an open's accounting (limiter charge, op counter,
// latency) and, when the path lands on a regular file the caller may
// read, one read of the whole content (readNode). There is no File, no
// staging buffer and no EOF round: to the limiter and to /.proc/vfs a
// whole-file read is one open plus one read of the file's size, and a
// failed one is one failed open — the errors are Open's, the path is
// resolved once.
//
// ok=false sends the caller to the handle path before anything was
// counted: chroots and unclean paths (the handle records the real path)
// and synthetic files (content comes from the provider).
func (p *Proc) readWhole(path string, share bool) (data []byte, ok bool, err error) {
	fs := p.fs
	if p.root != fs.root || !isClean(path) {
		return nil, false, nil
	}
	start := latStart()
	n, err := fs.lookupRO(p.cred, path, p.opts(true))
	if err == nil && n != nil && n.loadSynth() != nil {
		return nil, false, nil
	}
	if err := p.charge("open", 0); err != nil {
		return nil, true, err
	}
	fs.stats.opens.Add(1)
	fs.observe(LatOpen, start)
	switch {
	case err != nil:
	case n == nil:
		err = ErrNotExist
	case n.isDir():
		err = ErrIsDir
	case !allows(n, p.cred, wantRead):
		err = ErrAccess
	}
	if err != nil {
		return nil, true, pathErr("open", path, err)
	}
	data, err = p.readNode(n, share)
	return data, true, err
}

// readNode is one read of n's whole content, copied under the stripe —
// or, with share set, aliased (see ReadFileShared). The limiter admits
// the read, at the size the file has now, before the copy; a write
// racing in between changes what is returned, never what was billed.
func (p *Proc) readNode(n *inode, share bool) ([]byte, error) {
	fs := p.fs
	fs.stats.reads.Add(1)
	defer fs.observe(LatRead, latStart())
	if _, err := p.admitRead(n, 0, math.MaxInt); err != nil {
		return nil, err
	}
	s := fs.rlockContent(n)
	data := n.data
	if !share {
		data = append([]byte(nil), data...)
	}
	s.mu.RUnlock()
	return data, nil
}

// ReadFile returns the content of the file at path.
func (p *Proc) ReadFile(path string) ([]byte, error) {
	if data, ok, err := p.readWhole(path, false); ok {
		return data, err
	}
	f, err := p.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, err := f.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// ReadFileShared returns the content of the file at path WITHOUT
// copying: the returned slice aliases the inode's backing store. It
// exists for the libyanc packet-out spool, where frames are staged
// once, hard-linked per switch, and consumed by reference — copying
// them again in the driver would defeat the zero-copy path.
//
// The no-copy contract is only safe for write-once files: a later
// whole-content rewrite of equal or larger size reuses the backing
// array in place and would be visible through the returned slice.
// Callers that cannot guarantee write-once content must use ReadFile.
// Synthetic files return the provider's snapshot, which is already
// caller-owned.
func (p *Proc) ReadFileShared(path string) ([]byte, error) {
	if data, ok, err := p.readWhole(path, true); ok {
		return data, err
	}
	f, err := p.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.synthMode {
		if err := p.charge("read", len(f.synthBuf)); err != nil {
			return nil, err
		}
		p.fs.stats.reads.Add(1)
		return f.synthBuf, nil
	}
	return p.readNode(f.node, true)
}

// ReadString returns the file content as a whitespace-trimmed string,
// the natural shape for single-value yanc files like "priority".
func (p *Proc) ReadString(path string) (string, error) {
	b, err := p.ReadFile(path)
	if err != nil {
		return "", err
	}
	return trimSpace(string(b)), nil
}

func trimSpace(s string) string {
	start, end := 0, len(s)
	for start < end && (s[start] == ' ' || s[start] == '\n' || s[start] == '\t' || s[start] == '\r') {
		start++
	}
	for end > start && (s[end-1] == ' ' || s[end-1] == '\n' || s[end-1] == '\t' || s[end-1] == '\r') {
		end--
	}
	return s[start:end]
}

// WriteFile creates or truncates path with data.
func (p *Proc) WriteFile(path string, data []byte, mode FileMode) error {
	f, err := p.OpenFile(path, O_WRONLY|O_CREATE|O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteString writes a string to path, creating it if needed ("echo 1 >
// port_2/config.port_down").
func (p *Proc) WriteString(path, s string) error {
	return p.WriteFile(path, []byte(s), 0o644)
}

// AppendFile appends data to path, creating it if needed.
func (p *Proc) AppendFile(path string, data []byte, mode FileMode) error {
	f, err := p.OpenFile(path, O_WRONLY|O_CREATE|O_APPEND, mode)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
