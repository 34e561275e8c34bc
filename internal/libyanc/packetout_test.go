package libyanc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// TestPacketOutZeroCopyFanout pins the tentpole claim: fanning one
// frame out to N switches stages exactly ONE copy of the payload. Every
// switch's frame file must share the same backing array (hard links to
// one inode), the staging entry must be gone from the spool, and every
// target's doorbell must have been rung. The fan-outs 1, 8 and 64 are
// E18's "one staged copy" rows.
func TestPacketOutZeroCopyFanout(t *testing.T) {
	for _, fanout := range []int{2, 1, 8, 64} {
		t.Run(fmt.Sprintf("fanout-%d", fanout), func(t *testing.T) {
			y := newY(t)
			p := y.Root()
			var targets []string
			for i := 1; i <= fanout; i++ {
				sw, err := yancfs.CreateSwitch(p, "/", fmt.Sprintf("sw%d", i))
				if err != nil {
					t.Fatal(err)
				}
				targets = append(targets, sw)
			}
			frame := []byte("ethernet frame payload: 0123456789abcdef")
			c := New(y)
			if err := c.PacketOut(targets, "out=2 out=3 in_port=1", frame); err != nil {
				t.Fatal(err)
			}

			var backing [][]byte
			for _, sw := range targets {
				pout := sw + "/pout"
				ents, err := p.ReadDir(pout)
				if err != nil {
					t.Fatalf("%s: %v", pout, err)
				}
				var msg string
				for _, e := range ents {
					if yancfs.IsPacketOutName(e.Name) {
						msg = vfs.Join(pout, e.Name)
					}
				}
				if msg == "" {
					t.Fatalf("%s: no staged packet-out among %v", pout, ents)
				}
				head, err := p.ReadString(vfs.Join(msg, yancfs.PacketOutHead))
				if err != nil || strings.TrimSpace(head) != "out=2 out=3 in_port=1" {
					t.Fatalf("%s head = %q, %v", sw, head, err)
				}
				data, err := p.ReadFileShared(vfs.Join(msg, yancfs.PacketOutFrame))
				if err != nil {
					t.Fatal(err)
				}
				if string(data) != string(frame) {
					t.Fatalf("%s frame = %q", sw, data)
				}
				backing = append(backing, data)
				if bell, err := p.ReadString(vfs.Join(pout, yancfs.FileDoorbell)); err != nil || strings.TrimSpace(bell) == "" {
					t.Fatalf("%s doorbell = %q, %v", sw, bell, err)
				}
			}
			// The zero-copy assertion itself: one staged payload, shared by
			// reference across the fan-out.
			for i := range backing {
				if &backing[i][0] != &backing[0][0] {
					t.Errorf("fan-out copied the frame: %s and %s have distinct backing arrays", targets[0], targets[i])
				}
			}

			// The staging entry was unlinked inside the same transaction —
			// nothing is stranded in the spool.
			spool := vfs.Join("/", yancfs.DirEvents, yancfs.SpoolDir)
			if ents, err := p.ReadDir(spool); err == nil {
				for _, e := range ents {
					if yancfs.IsPacketOutName(e.Name) {
						t.Errorf("staging entry %s survived in the spool", e.Name)
					}
				}
			}
		})
	}
}

// TestPacketOutValidation pins the failure modes: a bad spec line and a
// missing switch are rejected up front, before anything is staged.
func TestPacketOutValidation(t *testing.T) {
	y := newY(t)
	p := y.Root()
	if _, err := yancfs.CreateSwitch(p, "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	c := New(y)
	if err := c.PacketOut([]string{"/switches/sw1"}, "in_port=1", []byte("x")); err == nil {
		t.Error("spec with no actions accepted")
	}
	if err := c.PacketOut([]string{"/switches/sw1"}, "out=bogus", []byte("x")); err == nil {
		t.Error("bad action accepted")
	}
	err := c.PacketOut([]string{"/switches/sw1", "/switches/ghost"}, "out=1", []byte("x"))
	if !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("missing switch = %v, want ErrNotExist", err)
	}
	// The failed transaction left no partial fan-out behind.
	if ents, err := p.ReadDir("/switches/sw1/pout"); err == nil {
		for _, e := range ents {
			if yancfs.IsPacketOutName(e.Name) {
				t.Errorf("failed fan-out left %s behind", e.Name)
			}
		}
	}
	if err := c.PacketOut(nil, "out=1", []byte("x")); err != nil {
		t.Errorf("empty fan-out = %v, want nil no-op", err)
	}
}
