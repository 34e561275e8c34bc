package vfs

import (
	"bytes"
	"encoding/binary"
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

// FuzzFileContent drives one file through a sequence of content writes
// and checks, after each, that every read agrees with a []byte model. An
// op is five bytes: a kind, then two little-endian uint16 arguments. The
// kinds are a whole WriteFile, a handle write past the end (which leaves
// a zero gap), an O_APPEND write, a Truncate that grows or shrinks,
// Tx.WriteFile, and a WriteTree that rebuilds the directory with f and g.
// The committed seeds sit at the length-prefix boundaries (0, 1, 127,
// 128, 16,383, 16,384 bytes) and around the intern limit (64, 65).
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
		checkContent(t, fs, "start", model)
		for op := 0; op < 16 && len(prog) > 0; op++ {
			var arg [5]byte
			prog = prog[copy(arg[:], prog):]
			n := int(binary.LittleEndian.Uint16(arg[1:])) % contentMax
			gap := int(binary.LittleEndian.Uint16(arg[3:])) % contentMax
			data := contentValue(op, n)
			var err error
			var step string
			switch arg[0] % 6 {
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
		}
	})
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
