package yancfs

import (
	"strconv"
	"strings"
)

// The packet-out data path is the write-direction mirror of the
// packet-in spool (§8.1 "efficient, zero-copy passing of bulk data"):
//
//   - libyanc stages one message directory — an immutable "head" spec
//     file plus the raw "frame" — under the region's hidden
//     <region>/events/.spool, hard-links it into every target switch's
//     pout/ directory, and unlinks the staging entry, all in one
//     transaction. The frame bytes exist once no matter how many
//     switches are targeted; the inode's nlink is the reference count.
//   - A tiny per-switch pout/doorbell write (the only copied bytes,
//     ~8 of them) tells the driver's mux that messages are pending; the
//     driver consumes each message by reference (vfs.ReadFileShared)
//     and removes its link, reclaiming the block when the last switch
//     has sent it.
const (
	// DirPacketOut is the per-switch queue directory the driver drains.
	DirPacketOut = "pout"
	// FileDoorbell is the per-switch notification file; its write event
	// is what wakes the driver, its content (the last staged sequence
	// number) is informational.
	FileDoorbell = "doorbell"
	// PacketOutHead and PacketOutFrame are the two files of a staged
	// packet-out message. Head holds a ParsePacketOutSpec line; Frame
	// holds the raw packet bytes, read shared.
	PacketOutHead  = "head"
	PacketOutFrame = "frame"

	poutPrefix = "po-"
)

// PacketOutName formats the message directory name for a sequence
// number; zero-padded so lexicographic order equals staging order.
func PacketOutName(seq uint64) string {
	return poutPrefix + pad12(seq)
}

// IsPacketOutName reports whether a pout/ entry is a staged message
// directory (the doorbell file is not).
func IsPacketOutName(name string) bool {
	if !strings.HasPrefix(name, poutPrefix) {
		return false
	}
	_, err := strconv.ParseUint(name[len(poutPrefix):], 10, 64)
	return err == nil
}
