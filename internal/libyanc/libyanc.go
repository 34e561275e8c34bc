// Package libyanc is the fastpath library of §8.1. The plain yanc API is
// file I/O: writing a flow costs one "system call" (a counted VFS entry
// point) per field, and pushing flows to thousands of switches costs tens
// of thousands of such calls. libyanc provides FlowRing (ring.go): a
// submission/completion ring for flow puts and deletes across any number
// of switches; each drain commits its whole batch under a single
// tree-lock acquisition and a single event flush, without any per-field
// call.
//
// The result is bit-for-bit the same file-system state and the same
// driver behaviour as file I/O — only the cost changes, which is what
// E18 and yancperf's install_ring workload measure. Packets have no
// libyanc channel: a packet-in's files are built once and attached to
// every subscriber's events/ buffer, one payload copy shared by hard
// link (E15), and a packet-out is one write of the
// switch's packet_out control file, one message on its control channel.
package libyanc

import "yanc/internal/yancfs"

// Client is a fastpath handle onto one yanc file system.
type Client struct {
	y *yancfs.FS
}

// New creates a fastpath client.
func New(y *yancfs.FS) *Client { return &Client{y: y} }
