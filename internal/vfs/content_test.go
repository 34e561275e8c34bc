package vfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// attrModel is what FuzzFileContent expects Stat to report of the file
// besides its content: the kind shares the mode word with the
// permission bits, so a chmod must move the one and keep the other.
type attrModel struct {
	mode     FileMode
	uid, gid int
}

// checkAttrs compares the file's and its directory's Stat with the model.
func checkAttrs(t *testing.T, fs *FS, step string, m attrModel) {
	t.Helper()
	p := fs.RootProc()
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
// 0644, owner 0:0), a Chmod to the first argument modulo 0o10000 (the
// setuid, setgid and sticky bits included) and a Chown to the two. The
// committed seeds sit at the length-prefix boundaries (0, 1, 127, 128,
// 16,383, 16,384 bytes), around the intern limit (64, 65) and at modes
// 0o7777 and 0.
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
			switch arg[0] % 8 {
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
// regular file and a synthetic file. A chmod to 0o7777 and back keeps
// the kind; Size is the directory's entry count, the symlink's target
// length and the file's content length; and reading a directory, or
// opening it to write, fails with ErrIsDir rather than decoding its
// state as a blob.
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
	if err := p.Symlink("/d", "/l"); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteString("/f", "hello"); err != nil {
		t.Fatal(err)
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
		{"/f", KindFile, 5, 0o644, false},
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
