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

	f, truncated, err := p.openFast(path, flags)
	if errors.Is(err, errNeedCreate) {
		f, err = p.openSlow(path, flags, mode)
	} else if truncated {
		p.fs.watches.post(Event{Op: OpWrite, Path: f.path})
	}
	if err != nil {
		return nil, err
	}
	// Synthetic content is produced outside the tree lock: a provider may
	// perform slow work (the OpenFlow driver queries the switch here) and
	// must not stall unrelated file-system operations.
	if f.needSynthRead {
		data, rerr := f.synth.read(f.path)
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
// not exist and O_CREATE was given; truncated reports that O_TRUNC
// emptied the file, which the caller announces once no lock is held.
func (p *Proc) openFast(path string, flags int) (f *File, truncated bool, err error) {
	fs := p.fs
	if p.root == fs.root && isClean(path) {
		if f, truncated, err, ok := p.openRCU(path, flags); ok {
			return f, truncated, err
		}
	}
	fs.lockCtr.resolveFallback.Add(1)
	fs.rlockTree()
	defer fs.runlockTree()
	parent, name, node, err := fs.resolve(p.cred, path, p.opts(true))
	if err != nil {
		return nil, false, pathErr("open", path, err)
	}
	if node == nil {
		if flags&O_CREATE == 0 {
			return nil, false, pathErr("open", path, ErrNotExist)
		}
		return nil, false, errNeedCreate
	}
	if node.isDir() {
		// Checked before pathTo: the root has no parent entry to name.
		return nil, false, pathErr("open", path, ErrIsDir)
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
func (p *Proc) openRCU(path string, flags int) (f *File, truncated bool, err error, ok bool) {
	fs := p.fs
	node, _, st, err := fs.walkRCU(p.cred, path, resolveOpts{followLast: true, root: fs.root})
	if st == rcuRetry || st == rcuBail {
		return nil, false, nil, false
	}
	fs.lockCtr.resolveLockfree.Add(1)
	if err != nil {
		return nil, false, pathErr("open", path, err), true
	}
	if node == nil {
		if flags&O_CREATE == 0 {
			return nil, false, pathErr("open", path, ErrNotExist), true
		}
		return nil, false, errNeedCreate, true
	}
	f, truncated, err = p.openExisting(node, path, flags)
	return f, truncated, err, true
}

// accessErr applies an open's own checks to a file that exists: it may
// not be a directory, and the caller needs the file's permission for each
// direction flags asks for.
func (p *Proc) accessErr(node *inode, flags int) error {
	if node.isDir() {
		return ErrIsDir
	}
	if flags&(O_WRONLY|O_RDWR) != 0 && !allows(node, p.cred, wantWrite) {
		return ErrAccess
	}
	if flags&O_WRONLY == 0 && !allows(node, p.cred, wantRead) {
		return ErrAccess
	}
	return nil
}

// openExisting applies the existing-file open rules (flag and permission
// checks, synthetic capture, O_TRUNC) and builds the handle. It requires
// no lock: permissions, the synthetic attachment and the content are
// atomics.
func (p *Proc) openExisting(node *inode, realPath string, flags int) (f *File, truncated bool, err error) {
	if flags&O_CREATE != 0 && flags&O_EXCL != 0 {
		return nil, false, pathErr("open", realPath, ErrExist)
	}
	if err := p.accessErr(node, flags); err != nil {
		return nil, false, pathErr("open", realPath, err)
	}
	f = p.newFile(node, realPath, flags)
	if !f.synthMode && flags&O_TRUNC != 0 {
		p.fs.truncate(node)
		truncated = true
	}
	return f, truncated, nil
}

// newFile builds the handle of an open that has passed its checks,
// capturing the synthetic provider if the node has one.
func (p *Proc) newFile(node *inode, realPath string, flags int) *File {
	f := &File{proc: p, node: node, path: realPath, flags: flags} //yancvet:alloc the handle path; whole-file calls on regular files never come here
	if syn := node.loadSynth(); syn != nil {
		f.synth = syn
		f.synthMode = true
		f.needSynthRead = flags&O_WRONLY == 0 && syn.readable()
	}
	return f
}

// truncate empties a regular file, as O_TRUNC does.
func (fs *FS) truncate(node *inode) {
	node.storeContent(nil)
	node.touchM(fs.now())
}

// openSlow creates the file in a one-step transaction. It re-resolves
// from scratch: another open may have created the file between the fast
// path's read lock and here.
func (p *Proc) openSlow(path string, flags int, mode FileMode) (*File, error) {
	fs := p.fs
	tx := fs.newTx(p)
	fs.lockTree()
	f, err := func() (*File, error) {
		parent, name, node, err := tx.resolve(path, true)
		if err != nil {
			return nil, pathErr("open", path, err)
		}
		node, full, created, err := tx.openLocked(parent, name, node, flags, mode, nil)
		if err != nil {
			return nil, pathErr("open", path, err)
		}
		f := p.newFile(node, full, flags)
		if !f.synthMode && flags&O_TRUNC != 0 && !created {
			fs.truncate(node)
			tx.queue(Event{Op: OpWrite, Path: full})
		}
		return f, nil
	}()
	fs.unlockTree()
	tx.flush()
	return f, err
}

// openLocked is the half of an open that needs the tree write lock, for
// OpenFile's create branch and the handle-free write, in a Proc's
// transaction. Given what resolve found at (parent, name), it creates the
// regular file, holding data, when node is nil, and applies the
// existing-file rules when the create race was lost; either way the
// caller's access is checked against flags. It returns the node, its real
// path, and whether it was created here; errors are bare errnos for the
// caller to wrap in its own spelling of the path.
//
//yancvet:hotalloc
func (tx *Tx) openLocked(parent *inode, name string, node *inode, flags int, mode FileMode, data []byte) (n *inode, full string, created bool, err error) {
	p := tx.p
	if node != nil {
		// Lost the create race: apply the existing-file rules.
		if flags&O_CREATE != 0 && flags&O_EXCL != 0 {
			return nil, "", false, ErrExist
		}
		if err := p.accessErr(node, flags); err != nil {
			return nil, "", false, err
		}
		return node, pathTo(parent, name), false, nil // after the directory check: the root has no parent entry to name
	}
	if node, full, err = tx.create(parent, name, data, mode, p.cred.UID, p.cred.GID); err != nil {
		return nil, "", false, err
	}
	tx.fs.stats.creates.Add(1)
	if flags&(O_WRONLY|O_RDWR) != 0 && !allows(node, p.cred, wantWrite) {
		return nil, "", false, ErrAccess
	}
	return node, full, true, nil
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
	// was handed, and admits the read before anything is copied; the copy
	// is clamped to what was admitted.
	admitted, err := f.proc.admitRead(f.node, f.pos, len(b))
	if err != nil {
		return 0, err
	}
	// Content I/O on an open handle needs no lock at all (the node was
	// pinned at open time).
	src := fs.readContent(f.node)
	if f.pos < int64(len(src)) {
		n := copy(b[:admitted], src[f.pos:])
		f.pos += int64(n)
		return n, nil
	}
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
	avail := int64(len(n.content())) - off
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
	if err := f.proc.charge("write", len(b)); err != nil {
		return 0, err
	}
	f.wrote = true
	if f.synthMode {
		if f.flags&O_APPEND != 0 {
			f.pos = int64(len(f.synthBuf))
		}
		f.synthBuf = spliced(f.synthBuf, b, f.pos)
		f.pos += int64(len(b))
		return len(b), nil
	}
	fs := f.proc.fs
	n := f.node
	for {
		old := n.data.Load()
		cur := bodyOf(blobIn(old))
		if f.flags&O_APPEND != 0 {
			f.pos = int64(len(cur))
		}
		var next *byte
		if f.pos == 0 && len(b) >= len(cur) {
			next = publish(b) // a whole-content replace: the common shape
		} else {
			next = splicedBlob(cur, b, f.pos)
		}
		if n.swapContent(old, next) {
			break
		}
	}
	f.pos += int64(len(b))
	n.touchM(fs.now())
	fs.watches.post(Event{Op: OpWrite, Path: f.path})
	return len(b), nil
}

// publish returns a blob holding a copy of data, the form a file
// publishes it in (inode.data): the pool's own for a payload it holds,
// which costs no allocation, else a new one. Nil is empty.
//
//yancvet:hotalloc
func publish(data []byte) *byte {
	if len(data) == 0 {
		return nil
	}
	if p, ok := internBytes(data); ok {
		return p
	}
	return blobOf(data)
}

// splicedBlob returns a new blob holding cur with b written at pos, zeros
// filling any gap between cur's end and pos: the one allocation of a
// partial write, an append or a growing truncate. It writes into neither.
// The result is never empty: each caller has pos > 0, b past cur's end, or
// a non-empty cur.
func splicedBlob(cur, b []byte, pos int64) *byte {
	p, body := newBlob(int(max(int64(len(cur)), pos+int64(len(b)))))
	copy(body, cur)
	copy(body[pos:], b)
	return p
}

// spliced returns new bytes holding cur with b written at pos, zeros
// filling any gap between cur's end and pos: a synthetic file's buffered
// write. It writes into neither.
func spliced(cur, b []byte, pos int64) []byte {
	out := make([]byte, max(int64(len(cur)), pos+int64(len(b)))) //yancvet:alloc a buffered synthetic write: the provider takes the buffer at close
	copy(out, cur)
	copy(out[pos:], b)
	return out
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
			base = int64(len(f.node.content()))
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
	n := f.node
	for {
		old := n.data.Load()
		cur := bodyOf(blobIn(old))
		var next *byte
		if size <= int64(len(cur)) {
			next = publish(cur[:size])
		} else {
			next = splicedBlob(cur, nil, size)
		}
		if n.swapContent(old, next) {
			break
		}
	}
	n.touchM(fs.now())
	fs.watches.post(Event{Op: OpWrite, Path: f.path})
	return nil
}

// Stat describes the open file.
func (f *File) Stat() (Stat, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return Stat{}, pathErr("stat", f.path, ErrClosed)
	}
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
		f.proc.fs.watches.post(Event{Op: OpCloseWrite, Path: f.path})
	}
	return nil
}

// readWhole is the handle-free whole-file read. The file is named either
// by path from the root (dir nil) or by the single name path below the
// referenced directory dir (the …At calls, at.go); it is resolved
// lock-free, then comes an open's accounting (limiter charge and op
// counter) and, when the name lands on a regular file the caller may
// read, one read of the whole content (readNode). There is no File, no
// staging buffer and no EOF round: to the limiter and to /.proc/vfs a
// whole-file read is one open plus one read of the file's size, and a
// failed one is one failed open — the errors are Open's, the name is
// resolved once.
//
// ok=false sends the caller to the handle path before anything was
// counted: chroots and unclean paths (the handle records the real path),
// synthetic files (content comes from the provider) and, below a
// directory reference, a symlink.
//
//yancvet:hotalloc
func (p *Proc) readWhole(dir *inode, path string, share bool) (data []byte, ok bool, err error) {
	fs := p.fs
	if p.root != fs.root {
		return nil, false, nil
	}
	var n *inode
	if dir == nil {
		if !isClean(path) {
			return nil, false, nil
		}
		n, err = fs.lookupRO(p.cred, path, p.opts(true))
	} else {
		var st rcuStatus
		if n, st, err = fs.lookupAt(p.cred, dir, path); st == rcuBail || st == rcuRetry {
			return nil, false, nil
		}
	}
	if err == nil && n != nil && n.loadSynth() != nil {
		return nil, false, nil
	}
	if err := p.charge("open", 0); err != nil {
		return nil, true, err
	}
	fs.stats.opens.Add(1)
	if err == nil {
		if n == nil {
			err = ErrNotExist
		} else {
			err = p.accessErr(n, O_RDONLY)
		}
	}
	if err != nil {
		return nil, true, pathErr("open", p.spell(dir, path), err)
	}
	data, err = p.readNode(n, share)
	return data, true, err
}

// readNode is one read of n's whole content, copied — or, with share
// set, not (see ReadFileShared). The limiter admits the read, at the size
// the file has now, before the load; a write racing in between changes
// what is returned, never what was billed.
//
//yancvet:hotalloc
func (p *Proc) readNode(n *inode, share bool) ([]byte, error) {
	fs := p.fs
	fs.stats.reads.Add(1)
	if _, err := p.admitRead(n, 0, math.MaxInt); err != nil {
		return nil, err
	}
	data := fs.readContent(n)
	if !share {
		data = append([]byte(nil), data...) //yancvet:alloc the caller's copy of the content
	}
	return data, nil
}

// ReadFile returns the content of the file at path.
func (p *Proc) ReadFile(path string) ([]byte, error) {
	if data, ok, err := p.readWhole(nil, path, false); ok {
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
		out = append(out, buf[:n]...) //yancvet:alloc the handle path's result buffer
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// ReadFileShared returns the content of the file at path WITHOUT
// copying: the returned slice is the file's published content, which
// nothing ever writes into — a later write publishes new bytes — so it
// stays what the file held at the read. The caller must not write into
// it either. Its capacity is its length, so an append to it makes new
// bytes rather than writing over the value of a file packed beside it
// (yancfs.TestReadFileSharedCapIsLen). It exists for packet-in delivery,
// where a message's files are built once, attached to every subscriber's
// buffer, and read by reference — copying them again per subscriber
// would defeat the zero-copy path.
// Synthetic files return the provider's snapshot, which is already
// caller-owned.
func (p *Proc) ReadFileShared(path string) ([]byte, error) {
	if data, ok, err := p.readWhole(nil, path, true); ok {
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

// wholeWrite is the open a whole-file write stands for: its access rules
// are that open's.
const wholeWrite = O_WRONLY | O_CREATE | O_TRUNC

// writeWhole is the handle-free whole-file write, the mirror of
// readWhole and named the same two ways: path from the root, or one name
// below the referenced directory dir. To the limiter and /.proc/vfs it is
// the open and the write it replaces (one create more when it creates),
// charged in that order before anything is touched.
//
// An existing regular file is found lock-free and its content replaced in
// one swap — truncate and write together, so no reader can find it empty
// in between. A missing one (or a walk that structural change kept
// invalidating) is settled under the tree write lock by createWhole, with
// one resolve. Either way the call queues what the handle would have —
// Create or the truncating Write, then Write, then CloseWrite, under the
// file's real path — into one pooled buffer and dispatches it once.
//
// ok=false sends the caller to the handle path before anything was
// counted: a path that is unclean or spelled by a confined Proc and any
// symlink (the events need the real path, which a handle works out), and
// synthetic files (the provider consumes the content on close).
//
//yancvet:hotalloc
func (p *Proc) writeWhole(dir *inode, path string, data []byte, mode FileMode) (ok bool, err error) {
	fs := p.fs
	var (
		node   *inode
		parent = dir // the directory a missing file would be created in
		st     rcuStatus
	)
	if dir == nil {
		if p.root != fs.root || !isClean(path) {
			return false, nil
		}
		node, parent, st, err = fs.walkRCU(p.cred, path, resolveOpts{followLast: true, root: fs.root})
		if st == rcuRetry {
			fs.lockCtr.resolveFallback.Add(1)
		} else if st != rcuBail {
			fs.lockCtr.resolveLockfree.Add(1)
		}
	} else {
		node, st, err = fs.lookupAt(p.cred, dir, path)
	}
	if st == rcuBail || (node != nil && node.loadSynth() != nil) {
		return false, nil
	}
	if err := p.charge("open", 0); err != nil {
		return true, err
	}
	fs.stats.opens.Add(1)
	switch {
	case err != nil:
	case node != nil:
		err = p.accessErr(node, wholeWrite)
	case st == rcuOK && !allows(parent, p.cred, wantWrite):
		err = ErrAccess // the create would be refused: the open fails, nothing is written
	}
	if err != nil {
		return true, pathErr("open", p.spell(dir, path), err)
	}
	fs.stats.writes.Add(1)
	if err := p.charge("write", len(data)); err != nil {
		return true, err
	}

	var events *[]Event
	if node != nil {
		events = fs.watches.getBuf()
		full := path
		if dir != nil {
			// The events carry where the directory is now, so the path is
			// read off the tree on every call, never kept in the reference.
			fs.rlockTree()
			if dir.dead() {
				err = ErrNotExist
			} else {
				full = pathTo(dir, path)
			}
			fs.runlockTree()
		}
		if err == nil {
			fs.replaceContent(node, data)
			*events = append(*events, Event{Op: OpWrite, Path: full}, Event{Op: OpWrite, Path: full}, Event{Op: OpCloseWrite, Path: full})
		}
	} else {
		// Missing, or the walk kept being invalidated: settle it under the
		// tree write lock.
		tx := fs.newTx(p)
		events = tx.events
		var (
			syn  *Synthetic
			full string
		)
		fs.lockTree()
		syn, full, err = tx.createWhole(dir, path, data, mode)
		fs.unlockTree()
		fs.endTx(tx)
		if syn != nil {
			// The create race was lost to a hook planting a synthetic file:
			// its provider consumes the content, outside every lock.
			if syn.Write == nil {
				err = ErrPerm
			} else if err = syn.Write(append([]byte(nil), data...)); err == nil { //yancvet:alloc the provider owns what it is handed
				*events = append(*events, Event{Op: OpCloseWrite, Path: full})
			}
		}
	}
	// A failed call still dispatches: a file created and then refused to
	// its creator has announced itself, as it does through a handle.
	fs.watches.dispatch(events)
	if err != nil {
		return true, pathErr("open", p.spell(dir, path), err)
	}
	return true, nil
}

// replaceContent is a truncate and a whole-content write in one swap.
//
//yancvet:hotalloc
func (fs *FS) replaceContent(n *inode, data []byte) {
	n.storeContent(publish(data))
	n.touchM(fs.now())
}

// createWhole is writeWhole's turn under the tree write lock, in a
// Proc's one-step transaction: it resolves the name once, creates the
// file holding data or — the create race lost — replaces the content of
// the regular file it finds, and queues the events. A synthetic file
// found there is handed back with its real path for the caller to feed
// once the lock is released.
//
//yancvet:hotalloc
func (tx *Tx) createWhole(dir *inode, path string, data []byte, mode FileMode) (syn *Synthetic, full string, err error) {
	parent, name, node, err := tx.resolveAt(dir, path, true)
	if err != nil {
		return nil, "", err
	}
	node, full, created, err := tx.openLocked(parent, name, node, wholeWrite, mode, data)
	if err != nil {
		return nil, "", err
	}
	if syn = node.loadSynth(); syn != nil {
		return syn, full, nil
	}
	if !created {
		tx.fs.replaceContent(node, data)
		tx.queue(Event{Op: OpWrite, Path: full})
	}
	tx.queue(Event{Op: OpWrite, Path: full})
	tx.queue(Event{Op: OpCloseWrite, Path: full})
	return nil, full, nil
}

// WriteFile creates or truncates path with data.
func (p *Proc) WriteFile(path string, data []byte, mode FileMode) error {
	if ok, err := p.writeWhole(nil, path, data, mode); ok {
		return err
	}
	f, err := p.OpenFile(path, wholeWrite, mode)
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
