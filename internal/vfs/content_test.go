package vfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// contentDir holds the file FuzzFileContent drives, f, beside a gate
// file, g, that Tx.ReadTree needs and that WriteTree packs right after f
// in one arena, so a write that ran past f's value would show in g.
const (
	contentDir  = "/t"
	contentFile = contentDir + "/f"
	contentGate = "gate\n"
	// contentMax bounds a fuzzed length: far enough past 16,384, where a
	// body's length prefix grows to three bytes.
	contentMax = 16400
)

// contentValue is an n-byte value that differs from one op to the next.
func contentValue(op, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + (op+i)%26)
	}
	return b
}

// checkContent reads the file every way there is and compares each with
// the model.
func checkContent(t *testing.T, fs *FS, step string, model []byte) {
	t.Helper()
	p := fs.RootProc()
	got, err := p.ReadFile(contentFile)
	if err != nil || !bytes.Equal(got, model) {
		t.Fatalf("%s: ReadFile = %d bytes (%v), want %d", step, len(got), err, len(model))
	}
	shared, err := p.ReadFileShared(contentFile)
	if err != nil || !bytes.Equal(shared, model) || cap(shared) != len(shared) {
		t.Fatalf("%s: ReadFileShared = len %d cap %d (%v), want len %d = cap", step, len(shared), cap(shared), err, len(model))
	}
	st, err := p.Stat(contentFile)
	if err != nil || st.Size != int64(len(model)) {
		t.Fatalf("%s: Stat.Size = %d (%v), want %d", step, st.Size, err, len(model))
	}
	var buf TreeBuf
	if err := fs.ReadTx(func(tx *Tx) error {
		_, err := tx.ReadTree(contentDir, "g", nil, &buf)
		return err
	}); err != nil {
		t.Fatalf("%s: ReadTree: %v", step, err)
	}
	seen := map[string]string{}
	for _, f := range buf.Files {
		seen[f.Name] = f.Data
	}
	if len(seen) != 2 || seen["f"] != string(model) || seen["g"] != contentGate {
		t.Fatalf("%s: ReadTree read f as %d bytes and g as %q, want %d bytes and %q", step, len(seen["f"]), seen["g"], len(model), contentGate)
	}
}

// attrModel is what FuzzFileContent expects Stat and the xattr calls to
// report of the file besides its content: the kind shares the mode word
// with the permission bits, so a chmod must move the one and keep the
// other, and xattrs put the file's content in a record, so every content
// write must keep them and every xattr edit the content.
type attrModel struct {
	mode     FileMode
	uid, gid int
	xattrs   map[string]string
}

// checkAttrs compares the file's and its directory's Stat, and the
// file's xattrs, with the model.
func checkAttrs(t *testing.T, fs *FS, step string, m attrModel) {
	t.Helper()
	p := fs.RootProc()
	names, err := p.ListXattr(contentFile)
	want := make([]string, 0, len(m.xattrs))
	for name := range m.xattrs {
		want = append(want, name)
	}
	slices.Sort(want)
	if err != nil || !slices.Equal(names, want) {
		t.Fatalf("%s: ListXattr = %q (%v), want %q", step, names, err, want)
	}
	for name, value := range m.xattrs {
		if got, err := p.GetXattrString(contentFile, name); err != nil || got != value {
			t.Fatalf("%s: GetXattr(%s) = %d bytes (%v), want %d", step, name, len(got), err, len(value))
		}
	}
	st, err := p.Stat(contentFile)
	if err != nil || st.Kind != KindFile || st.Mode != m.mode || st.UID != m.uid || st.GID != m.gid {
		t.Fatalf("%s: Stat = kind %v mode %o uid %d gid %d (%v), want file %o %d %d", step, st.Kind, st.Mode, st.UID, st.GID, err, m.mode, m.uid, m.gid)
	}
	if st, err := p.Stat(contentDir); err != nil || st.Kind != KindDir || st.Mode != 0o755 || st.Size != 2 {
		t.Fatalf("%s: Stat(dir) = kind %v mode %o size %d (%v), want dir 755 of 2 entries", step, st.Kind, st.Mode, st.Size, err)
	}
}

// FuzzFileContent drives one file through a sequence of content and
// attribute changes and checks, after each, that every read agrees with
// a []byte model and Stat with an attribute model. An op is five bytes:
// a kind, then two little-endian uint16 arguments. The kinds are a whole
// WriteFile, a handle write past the end (which leaves a zero gap), an
// O_APPEND write, a Truncate that grows or shrinks, Tx.WriteFile, a
// WriteTree that rebuilds the directory with f and g (a new file: mode
// 0644, owner 0:0, no xattrs), a Chmod to the first argument modulo
// 0o10000 (the setuid, setgid and sticky bits included), a Chown to the
// two, a SetXattr of one of three names (the first argument picks it, the
// second the value's length, below 100) and a RemoveXattr of one of
// them, which fails with ErrNoAttr when the model has none. The committed
// seeds sit at the length-prefix boundaries (0, 1, 127, 128, 16,383,
// 16,384 bytes), around the intern limit (64, 65) and at modes 0o7777
// and 0; they use kinds 0 to 7 only, which read the same under % 10 as
// they did under % 8.
func FuzzFileContent(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		fs := New()
		p := fs.RootProc()
		writeTree := func(data []byte) error {
			return fs.WithTx(func(tx *Tx) error {
				if tx.Exists(contentDir) {
					if err := tx.Remove(contentDir); err != nil {
						return err
					}
				}
				return tx.WriteTree(contentDir, []FileData{
					{Name: "f", Data: data},
					{Name: "g", Data: []byte(contentGate)},
				}, 0o755, 0o644, 0, 0)
			})
		}
		if err := writeTree(nil); err != nil {
			t.Fatal(err)
		}
		var model []byte
		created := attrModel{mode: 0o644}
		attrs := created
		checkContent(t, fs, "start", model)
		checkAttrs(t, fs, "start", attrs)
		for op := 0; op < 16 && len(prog) > 0; op++ {
			var arg [5]byte
			prog = prog[copy(arg[:], prog):]
			n := int(binary.LittleEndian.Uint16(arg[1:])) % contentMax
			gap := int(binary.LittleEndian.Uint16(arg[3:])) % contentMax
			data := contentValue(op, n)
			var err error
			var step string
			xattr := fmt.Sprintf("user.x%d", binary.LittleEndian.Uint16(arg[1:])%3)
			switch arg[0] % 10 {
			case 0:
				step = fmt.Sprintf("op %d: WriteFile %d", op, n)
				err = p.WriteFile(contentFile, data, 0o644)
				model = data
			case 1:
				step = fmt.Sprintf("op %d: write %d at %d past the end", op, n, gap)
				if len(model)+gap+n > 4*contentMax {
					continue
				}
				var fh *File
				if fh, err = p.OpenFile(contentFile, O_RDWR, 0); err == nil {
					if _, err = fh.Seek(int64(len(model)+gap), io.SeekStart); err == nil {
						_, err = fh.Write(data)
					}
					fh.Close()
				}
				model = append(append(model, make([]byte, gap)...), data...)
			case 2:
				step = fmt.Sprintf("op %d: O_APPEND write %d", op, n)
				if len(model)+n > 4*contentMax {
					continue
				}
				var fh *File
				if fh, err = p.OpenFile(contentFile, O_WRONLY|O_APPEND, 0); err == nil {
					_, err = fh.Write(data)
					fh.Close()
				}
				model = append(model, data...)
			case 3:
				step = fmt.Sprintf("op %d: Truncate %d", op, n)
				var fh *File
				if fh, err = p.OpenFile(contentFile, O_WRONLY, 0); err == nil {
					err = fh.Truncate(int64(n))
					fh.Close()
				}
				if n <= len(model) {
					model = model[:n]
				} else {
					model = append(model, make([]byte, n-len(model))...)
				}
			case 4:
				step = fmt.Sprintf("op %d: Tx.WriteFile %d", op, n)
				err = fs.WithTx(func(tx *Tx) error { return tx.WriteFile(contentFile, data, 0o644, 0, 0) })
				model = data
			case 5:
				step = fmt.Sprintf("op %d: WriteTree %d", op, n)
				err = writeTree(data)
				model = data
				attrs = created
			case 6:
				mode := FileMode(binary.LittleEndian.Uint16(arg[1:]) % 0o10000)
				step = fmt.Sprintf("op %d: Chmod %o", op, mode)
				err = p.Chmod(contentFile, mode)
				attrs.mode = mode
			case 7:
				uid, gid := int(binary.LittleEndian.Uint16(arg[1:])), int(binary.LittleEndian.Uint16(arg[3:]))
				step = fmt.Sprintf("op %d: Chown %d:%d", op, uid, gid)
				err = p.Chown(contentFile, uid, gid)
				attrs.uid, attrs.gid = uid, gid
			case 8:
				value := contentValue(op, gap%100)
				step = fmt.Sprintf("op %d: SetXattr %s of %d bytes", op, xattr, len(value))
				err = p.SetXattr(contentFile, xattr, value)
				attrs.xattrs = maps.Clone(attrs.xattrs)
				if attrs.xattrs == nil {
					attrs.xattrs = map[string]string{}
				}
				attrs.xattrs[xattr] = string(value)
			case 9:
				step = fmt.Sprintf("op %d: RemoveXattr %s", op, xattr)
				err = p.RemoveXattr(contentFile, xattr)
				if _, ok := attrs.xattrs[xattr]; !ok {
					if !errors.Is(err, ErrNoAttr) {
						t.Fatalf("%s: %v, want ErrNoAttr", step, err)
					}
					err = nil
				}
				attrs.xattrs = maps.Clone(attrs.xattrs)
				delete(attrs.xattrs, xattr)
			}
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			// The caller's buffer is its own again once a write returns:
			// scribbling over it must not show in the file.
			model = bytes.Clone(model)
			for i := range data {
				data[i] = 'X'
			}
			checkContent(t, fs, step, model)
			checkAttrs(t, fs, step, attrs)
		}
	})
}

// TestDataWordByKind checks what the data word and the mode word hold
// for each kind of node: a directory, a symlink (to the directory), a
// regular file and a synthetic file, and a symlink and a regular file
// with an xattr, whose words hold a record. A chmod to 0o7777 and back
// keeps the kind; Size is the directory's entry count, the symlink's
// target length and the file's content length, with or without a
// record; the record keeps the target and the content; and reading a
// directory, or opening it to write, fails with ErrIsDir rather than
// decoding its state as a blob.
func TestDataWordByKind(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	if err := p.MkdirAll("/d/sub", 0o750); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/d/a", "/d/b"} {
		if err := p.WriteString(name, "x"); err != nil {
			t.Fatal(err)
		}
	}
	for _, link := range []string{"/l", "/lx"} {
		if err := p.Symlink("/d", link); err != nil {
			t.Fatal(err)
		}
	}
	for _, file := range []string{"/f", "/fx"} {
		if err := p.WriteString(file, "hello"); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetXattr("/fx", "user.k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// SetXattr follows a symlink, so the link's own attribute is set on
	// its inode directly.
	lx, err := fs.lookupRO(p.cred, "/lx", resolveOpts{})
	if err != nil || lx == nil || lx.kind() != KindSymlink {
		t.Fatalf("lookup /lx = %v (%v)", lx, err)
	}
	lx.editXattrs("user.k", []byte("v"), false)
	fx, _ := fs.root.kids().get("fx")
	for _, n := range []*inode{lx, fx} {
		if recordOf(n.data.Load()) == nil || string(n.xattrs()["user.k"]) != "v" {
			t.Fatalf("%v: no record holding user.k", n.kind())
		}
	}
	if target, err := p.Readlink("/lx"); err != nil || target != "/d" {
		t.Fatalf("Readlink(/lx) = %q (%v), want /d", target, err)
	}
	if b, err := p.ReadFile("/fx"); err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile(/fx) = %q (%v), want hello", b, err)
	}
	if err := fs.WithTx(func(tx *Tx) error {
		return tx.SetSynthetic("/s", &Synthetic{Read: func() ([]byte, error) { return []byte("42\n"), nil }}, 0o440, 0, 0)
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		kind NodeKind // Lstat's kind
		size int64    // Lstat's size
		mode FileMode // the mode chmod goes back to: the followed node's
		dir  bool     // the path leads to a directory
	}{
		{"/d", KindDir, 3, 0o750, true},
		{"/l", KindSymlink, 2, 0o750, true},
		{"/lx", KindSymlink, 2, 0o750, true},
		{"/f", KindFile, 5, 0o644, false},
		{"/fx", KindFile, 5, 0o644, false},
		{"/s", KindFile, 0, 0o440, false},
	} {
		lstat := func(step string) Stat {
			st, err := p.Lstat(tc.path)
			if err != nil || st.Kind != tc.kind || st.Size != tc.size {
				t.Fatalf("%s: %s: Lstat = kind %v size %d (%v), want %v of size %d", tc.path, step, st.Kind, st.Size, err, tc.kind, tc.size)
			}
			return st
		}
		before := lstat("before")
		for _, mode := range []FileMode{0o7777, tc.mode} {
			if err := p.Chmod(tc.path, mode); err != nil {
				t.Fatal(err)
			}
			step := fmt.Sprintf("after chmod %o", mode)
			if st := lstat(step); tc.kind == KindSymlink && st.Mode != before.Mode {
				t.Fatalf("%s: %s: the link's own mode went %o -> %o", tc.path, step, before.Mode, st.Mode)
			}
			st, err := p.Stat(tc.path)
			if err != nil || st.Mode != mode || st.IsDir() != tc.dir {
				t.Fatalf("%s: %s: Stat = mode %o dir %v (%v), want %o dir %v", tc.path, step, st.Mode, st.IsDir(), err, mode, tc.dir)
			}
		}
		if !tc.dir {
			continue
		}
		if b, err := p.ReadFile(tc.path); !errors.Is(err, ErrIsDir) {
			t.Fatalf("%s: ReadFile = %d bytes (%v), want ErrIsDir", tc.path, len(b), err)
		}
		if b, err := p.ReadFileShared(tc.path); !errors.Is(err, ErrIsDir) {
			t.Fatalf("%s: ReadFileShared = %d bytes (%v), want ErrIsDir", tc.path, len(b), err)
		}
		if err := fs.ReadTx(func(tx *Tx) error {
			b, err := tx.ReadFile(tc.path)
			if !errors.Is(err, ErrIsDir) {
				t.Fatalf("%s: Tx.ReadFile = %d bytes (%v), want ErrIsDir", tc.path, len(b), err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, flags := range []int{O_WRONLY, O_RDWR, O_WRONLY | O_APPEND, O_WRONLY | O_TRUNC} {
			if fh, err := p.OpenFile(tc.path, flags, 0); !errors.Is(err, ErrIsDir) {
				if fh != nil {
					fh.Close()
				}
				t.Fatalf("%s: OpenFile(%#x) = %v, want ErrIsDir", tc.path, flags, err)
			}
		}
		if err := p.WriteString(tc.path, "x"); !errors.Is(err, ErrIsDir) {
			t.Fatalf("%s: WriteString = %v, want ErrIsDir", tc.path, err)
		}
	}
	// The directory is intact after all of it.
	if ents, err := p.ReadDir("/d"); err != nil || len(ents) != 3 {
		t.Fatalf("ReadDir(/d) = %v (%v), want its 3 entries", ents, err)
	}
}

// TestStressContentPrefixWidths races writers across the widths of a
// content blob's length prefix while readers check that every read is a
// whole published value. One writer swaps /s/swap between 127-, 128- and
// 16,384-byte values (1-, 2- and 3-byte prefixes), each filled with its
// own letter, so a body read with another value's length shows. Two
// O_APPEND writers grow /s/log from a 127-byte base past 128 and 16,384
// bytes in 8-byte records; a read must hold each writer's records in
// order with none missing before the last, and the final file every
// record. Under -race, checkptr checks the pointer arithmetic that
// decodes each blob.
func TestStressContentPrefixWidths(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	widths := []int{127, 128, 16384}
	swapValue := func(w int) []byte { return bytes.Repeat([]byte{byte('a' + w%26)}, w) }
	base := bytes.Repeat([]byte{'.'}, 127)
	const recs, recLen = 1100, 8
	if err := p.MkdirAll("/s", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/s/swap", swapValue(widths[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/s/log", base, 0o644); err != nil {
		t.Fatal(err)
	}
	checkSwap := func(b []byte) error {
		for _, w := range widths {
			if len(b) == w {
				if !bytes.Equal(b, swapValue(w)) {
					return fmt.Errorf("swap: a %d-byte read is not the %d-byte value", len(b), w)
				}
				return nil
			}
		}
		return fmt.Errorf("swap: read %d bytes, not one of %v", len(b), widths)
	}
	checkLog := func(b []byte) (next [2]int, err error) {
		if len(b) < len(base) || !bytes.Equal(b[:len(base)], base) || (len(b)-len(base))%recLen != 0 {
			return next, fmt.Errorf("log: read %d bytes, not the base and whole records", len(b))
		}
		for r := b[len(base):]; len(r) > 0; r = r[recLen:] {
			rec := string(r[:recLen])
			g := int(rec[0])
			seq, err := strconv.Atoi(rec[1:7])
			if err != nil || g < 'A' || g > 'B' || rec[7] != '\n' {
				return next, fmt.Errorf("log: record %q is torn", rec)
			}
			if seq != next[g-'A'] {
				return next, fmt.Errorf("log: writer %c's record %d follows %d: an append was lost", g, seq, next[g-'A']-1)
			}
			next[g-'A']++
		}
		return next, nil
	}
	runWithDeadline(t, stressDeadline, func() {
		var writers, readers sync.WaitGroup
		done := make(chan struct{})
		writers.Add(3)
		go func() {
			defer writers.Done()
			for i := 0; i < 600; i++ {
				if err := p.WriteFile("/s/swap", swapValue(widths[i%len(widths)]), 0o644); err != nil {
					t.Errorf("swap: %v", err)
					return
				}
			}
		}()
		for g := 0; g < 2; g++ {
			go func(g int) {
				defer writers.Done()
				for i := 0; i < recs; i++ {
					rec := fmt.Appendf(nil, "%c%06d\n", 'A'+g, i)
					if err := p.AppendFile("/s/log", rec, 0o644); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
			}(g)
		}
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				read := p.ReadFile
				if r == 1 {
					read = p.ReadFileShared
				}
				for {
					select {
					case <-done:
						return
					default:
					}
					b, err := read("/s/swap")
					if err == nil {
						err = checkSwap(b)
					}
					if err == nil {
						b, err = read("/s/log")
					}
					if err == nil {
						_, err = checkLog(b)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		writers.Wait()
		close(done)
		readers.Wait()
	})
	b, err := p.ReadFile("/s/log")
	if err != nil {
		t.Fatal(err)
	}
	if next, err := checkLog(b); err != nil || next != [2]int{recs, recs} {
		t.Fatalf("log after the appends: %v, records %v; want %d from each writer", err, next, recs)
	}
}

// TestStressXattrBesideContentWrites races xattr edits against every
// content write path on one file. An xattr puts the file's content in a
// record, and both kinds of write build a new record from the one they
// loaded, so a writer that kept a stale field would lose the other
// kind's change. Two attribute writers run throughout: one sets
// user.s000 to user.s099 over and over, each to the count of its set, and
// one sets and removes user.tmp, whose remove fails if a content write
// brought back a map without it, or lost the map it was set in. Beside
// them the file goes through rounds: two O_APPEND writers of 8-byte
// records, after which the file must hold the base and every record in
// each writer's order; then a WriteFile writer beside a Truncate writer.
// At the end each user.s name holds its last value and user.tmp is gone.
func TestStressXattrBesideContentWrites(t *testing.T) {
	fs := New()
	p := fs.RootProc()
	const (
		file    = "/x/f"
		rounds  = 4
		recs    = 300
		recLen  = 8
		setSize = 100
	)
	base := []byte("base\n")
	if err := p.MkdirAll("/x", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile(file, base, 0o644); err != nil {
		t.Fatal(err)
	}
	var sets int // how many SetXattr calls the set writer made
	runWithDeadline(t, stressDeadline, func() {
		var attrs sync.WaitGroup
		done := make(chan struct{})
		attrs.Add(2)
		go func() {
			defer attrs.Done()
			for ; ; sets++ {
				select {
				case <-done:
					return
				default:
				}
				name := fmt.Sprintf("user.s%03d", sets%setSize)
				if err := p.SetXattr(file, name, []byte(strconv.Itoa(sets))); err != nil {
					t.Errorf("SetXattr(%s): %v", name, err)
					return
				}
			}
		}()
		go func() {
			defer attrs.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := p.SetXattr(file, "user.tmp", []byte(strconv.Itoa(i))); err != nil {
					t.Errorf("SetXattr(user.tmp): %v", err)
					return
				}
				if err := p.RemoveXattr(file, "user.tmp"); err != nil {
					t.Errorf("RemoveXattr(user.tmp) after setting it: %v", err)
					return
				}
			}
		}()
		for round := 0; round < rounds && !t.Failed(); round++ {
			var writers sync.WaitGroup
			writers.Add(2)
			for g := 0; g < 2; g++ {
				go func(g int) {
					defer writers.Done()
					for i := 0; i < recs; i++ {
						rec := fmt.Appendf(nil, "%c%06d\n", 'A'+g, i)
						if err := p.AppendFile(file, rec, 0o644); err != nil {
							t.Errorf("append: %v", err)
							return
						}
					}
				}(g)
			}
			writers.Wait()
			b, err := p.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != len(base)+2*recs*recLen || !bytes.Equal(b[:len(base)], base) {
				t.Fatalf("round %d: %d bytes after the appends, want the base and %d records", round, len(b), 2*recs)
			}
			var next [2]int
			for r := b[len(base):]; len(r) > 0; r = r[recLen:] {
				g := int(r[0] - 'A')
				if seq, err := strconv.Atoi(string(r[1:7])); err != nil || g < 0 || g > 1 || seq != next[g] {
					t.Fatalf("round %d: record %q out of place: an appended byte was lost", round, r[:recLen])
				}
				next[g]++
			}

			writers.Add(2)
			go func() {
				defer writers.Done()
				for i := 0; i < recs; i++ {
					if err := p.WriteFile(file, contentValue(i, 1+i%40), 0o644); err != nil {
						t.Errorf("WriteFile: %v", err)
						return
					}
				}
			}()
			go func() {
				defer writers.Done()
				fh, err := p.OpenFile(file, O_WRONLY, 0)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				defer fh.Close()
				for i := 0; i < recs; i++ {
					if err := fh.Truncate(int64(i % 50)); err != nil {
						t.Errorf("Truncate: %v", err)
						return
					}
				}
			}()
			writers.Wait()
			if err := p.WriteFile(file, base, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		close(done)
		attrs.Wait()
	})
	names, err := p.ListXattr(file)
	if err != nil {
		t.Fatal(err)
	}
	if want := min(sets, setSize); len(names) != want {
		t.Fatalf("%d xattrs after %d sets and the user.tmp cycles, want %d: %q", len(names), sets, want, names)
	}
	for k := 0; k < min(sets, setSize); k++ {
		last := sets - 1 - (sets-1-k)%setSize // the last set of user.s<k>
		name := fmt.Sprintf("user.s%03d", k)
		if v, err := p.GetXattrString(file, name); err != nil || v != strconv.Itoa(last) {
			t.Errorf("%s = %q (%v), want %d: an attribute was lost", name, v, err, last)
		}
	}
}
