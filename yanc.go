// Package yanc is the public API of the yanc controller platform — the
// reproduction of "Applying Operating System Principles to SDN Controller
// Design" (Monaco, Michel, Keller; HotNets 2013).
//
// yanc exposes network configuration and state as a file system:
// applications are ordinary processes that read and write files, watch
// directories, and consume per-application event buffers. A Controller
// bundles the pieces a deployment needs: the yanc file system, the
// OpenFlow drivers (1.0 and 1.3), the namespace manager for view
// isolation, and hooks for the fastpath library and the distributed
// file-system layer.
//
// Quickstart:
//
//	ctrl, _ := yanc.NewController()
//	ln, _ := net.Listen("tcp", ":6633")
//	go ctrl.Serve(ln)            // switches connect here
//	p := ctrl.Root()             // file I/O from here on
//	p.ReadDir("/switches")
package yanc

import (
	"io"
	"net"
	"time"

	"yanc/internal/apps"
	"yanc/internal/dfs"
	"yanc/internal/driver"
	"yanc/internal/ethernet"
	"yanc/internal/libyanc"
	"yanc/internal/middlebox"
	"yanc/internal/namespace"
	"yanc/internal/openflow"
	"yanc/internal/procfs"
	"yanc/internal/shell"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// Re-exported types so applications only import the yanc package.
type (
	// Proc is a process context on the file system (credential + root).
	Proc = vfs.Proc
	// Cred is a uid/gid credential.
	Cred = vfs.Cred
	// Stat describes a file-system node.
	Stat = vfs.Stat
	// DirEntry is one directory listing entry.
	DirEntry = vfs.DirEntry
	// Watch is an inotify-style subscription.
	Watch = vfs.Watch
	// Event is one file-system change notification.
	Event = vfs.Event
	// FileMode holds permission bits.
	FileMode = vfs.FileMode
	// FlowSpec is the in-memory form of a flow directory.
	FlowSpec = yancfs.FlowSpec
	// Match is a version-neutral OpenFlow match.
	Match = openflow.Match
	// Action is a version-neutral OpenFlow action.
	Action = openflow.Action
	// Namespace confines an application to a view subtree.
	Namespace = namespace.Namespace
	// Limits configures a control group.
	Limits = namespace.Limits
)

// Event mask bits (inotify analog).
const (
	OpCreate     = vfs.OpCreate
	OpWrite      = vfs.OpWrite
	OpRemove     = vfs.OpRemove
	OpRename     = vfs.OpRename
	OpChmod      = vfs.OpChmod
	OpCloseWrite = vfs.OpCloseWrite
	OpOverflow   = vfs.OpOverflow
	OpAll        = vfs.OpAll
)

// Root is the superuser credential.
var Root = vfs.Root

// Controller is a running yanc instance: the file system plus its system
// services.
type Controller struct {
	y    *yancfs.FS
	d    *driver.Driver
	ns   *namespace.Manager
	proc *procfs.Tree
}

// Option configures a Controller.
type Option func(*Controller)

// WithMaxProtocolVersion caps the OpenFlow version the drivers offer
// (openflow.Version10 or openflow.Version13).
func WithMaxProtocolVersion(v uint8) Option {
	return func(c *Controller) { c.d.MaxVersion = v }
}

// WithSwitchNamer overrides how datapath ids map to switch directory
// names (default "sw<dpid>").
func WithSwitchNamer(name func(dpid uint64) string) Option {
	return func(c *Controller) { c.d.NameFor = name }
}

// WithEchoProbes tunes the driver's liveness probing: each switch is
// sent an OpenFlow echo request every interval, and the connection is
// torn down — flipping the switch's status file to "disconnected" —
// after missThreshold consecutive unanswered probes. This catches the
// failures TCP alone never reports (a silent partition, a wedged
// datapath). interval <= 0 disables probing.
func WithEchoProbes(interval time.Duration, missThreshold int) Option {
	return func(c *Controller) {
		c.d.EchoInterval = interval
		c.d.EchoMisses = missThreshold
	}
}

// WithEventBufferDepth bounds the pending packet-in messages per
// subscriber event buffer. When a delivery finds a buffer at the bound it
// drops the buffer's oldest quarter and refreshes the buffer's overflow
// marker, so one stuck application cannot wedge delivery to the rest.
// n <= 0 restores the default (yancfs.DefaultEventBufferDepth).
func WithEventBufferDepth(n int) Option {
	return func(c *Controller) { c.y.SetEventBufferDepth(n) }
}

// NewController creates a controller with an empty /net hierarchy.
func NewController(opts ...Option) (*Controller, error) {
	y, err := yancfs.New()
	if err != nil {
		return nil, err
	}
	c := &Controller{y: y, d: driver.New(y)}
	c.ns = namespace.NewManager(y.VFS())
	c.proc, err = procfs.Install(y.VFS())
	if err != nil {
		return nil, err
	}
	c.proc.BindEvents(y)
	c.d.ProcDir = procfs.DriverDir
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Metrics returns the controller's .proc metrics subtree handle — use it
// to bind additional dfs exports or mounts into the observability files.
func (c *Controller) Metrics() *procfs.Tree { return c.proc }

// Root returns a superuser process context — the administrator's shell.
func (c *Controller) Root() *Proc { return c.y.Root() }

// Proc returns a process context with the given credential.
func (c *Controller) Proc(cred Cred) *Proc { return c.y.Proc(cred) }

// FS returns the yanc file system (for packages that need schema-level
// helpers).
func (c *Controller) FS() *yancfs.FS { return c.y }

// Serve accepts switch control connections on the listener (the
// controller side of OpenFlow) until it closes.
func (c *Controller) Serve(l net.Listener) error { return c.d.Serve(l) }

// AttachSwitch handshakes one switch control channel directly (useful
// with in-memory pipes and tests).
func (c *Controller) AttachSwitch(rw io.ReadWriter) error {
	_, err := c.d.Attach(rw)
	return err
}

// Driver exposes the driver layer (protocol version policy, liveness
// probing, the flow-installed hook).
func (c *Controller) Driver() *driver.Driver { return c.d }

// Namespaces returns the namespace manager (view isolation, cgroups).
func (c *Controller) Namespaces() *namespace.Manager { return c.ns }

// Launch enters a namespace and returns the Proc an application should
// use for all its file I/O.
func (c *Controller) Launch(ns Namespace) (*Proc, error) { return c.ns.Launch(ns) }

// Close stops all switch connections.
func (c *Controller) Close() { c.d.Close() }

// Shell returns a coreutils environment over the controller's file
// system, writing command output to out.
func (c *Controller) Shell(out io.Writer) *shell.Env {
	return shell.NewEnv(c.Root(), out)
}

// Fastpath returns a libyanc client: flow writes batched through a
// submission ring, without per-field file I/O (§8.1).
func (c *Controller) Fastpath() *libyanc.Client { return libyanc.New(c.y) }

// ExportDFS starts serving the controller's file system over TCP so
// other machines can mount it (§6). It returns the bound address.
func (c *Controller) ExportDFS(addr string) (string, *dfs.Server, error) {
	s := dfs.NewServer(c.y.VFS())
	bound, err := s.Listen(addr)
	if err != nil {
		return "", nil, err
	}
	c.proc.BindDFSServer(s)
	return bound, s, nil
}

// ReplicaOptions configures one member of a replicated dfs control
// plane: its index in the member list, the full address list, the
// lease/election timing, and the transport hooks.
type ReplicaOptions = dfs.ReplicaOptions

// ExportDFSReplica serves the controller's file system as one member of
// a replicated dfs group (§6): the replicas elect a lease-bounded
// leader, strict writes commit on a majority, and clients mounted with
// MountDFSReplicas fail over between members. The member listens on
// opts.Addrs[opts.ID]; the bound address is returned. The replica's
// consensus state appears in /.proc/dfs/replication.
func (c *Controller) ExportDFSReplica(opts ReplicaOptions) (string, *dfs.Replica, error) {
	r, err := dfs.NewReplica(c.y.VFS(), opts)
	if err != nil {
		return "", nil, err
	}
	bound, err := r.Listen(opts.Addrs[opts.ID])
	if err != nil {
		return "", nil, err
	}
	r.Start()
	c.proc.BindDFSServer(r.Server())
	c.proc.BindReplica(r)
	return bound, r, nil
}

// MountDFSReplicas mounts a replicated export by its full member list:
// the mount follows the leader across failovers, replays watches and
// pending writes, and deduplicates replayed writes server-side so a
// flow pushed mid-failover is applied exactly once.
func MountDFSReplicas(addrs []string, cred Cred, consistency dfs.Consistency, opts DFSOptions) (*dfs.Client, error) {
	return dfs.MountReplicas(addrs, cred, consistency, opts)
}

// BindMount registers a remote mount under name so its queue and
// reconnect state appear in /.proc/dfs/{queue,reconnects}. Call
// UnbindMount after closing the client.
func (c *Controller) BindMount(name string, client *dfs.Client) {
	c.proc.BindDFSClient(name, client)
}

// UnbindMount removes a mount from the metrics registry.
func (c *Controller) UnbindMount(name string) {
	c.proc.UnbindDFSClient(name)
}

// DFSOptions tunes a remote mount's failure behaviour: per-RPC
// deadlines, automatic reconnection with backoff, and the bound on the
// eventual-consistency write queue.
type DFSOptions = dfs.Options

// MountDFS mounts a remote controller's file system.
func MountDFS(addr string, cred Cred, consistency dfs.Consistency) (*dfs.Client, error) {
	return dfs.Mount(addr, cred, consistency)
}

// MountDFSOptions mounts a remote controller's file system with explicit
// resilience options. With Reconnect set, the mount survives server
// restarts: strict calls fail fast while the server is down, eventual
// writes queue, and on recovery the mount replays its consistency
// overrides, re-registers watches (each receives a synthetic Overflow
// event marking the gap), and flushes the queue.
func MountDFSOptions(addr string, cred Cred, consistency dfs.Consistency, opts DFSOptions) (*dfs.Client, error) {
	return dfs.MountOptions(addr, cred, consistency, opts)
}

// WriteFlow writes and commits a flow through ordinary file I/O.
func WriteFlow(p *Proc, flowPath string, spec FlowSpec) (uint64, error) {
	return yancfs.WriteFlow(p, flowPath, spec)
}

// ReadFlow parses a flow directory.
func ReadFlow(p *Proc, flowPath string) (FlowSpec, error) {
	return yancfs.ReadFlow(p, flowPath)
}

// ParseMatch parses "field=value,..." into a Match.
func ParseMatch(spec string) (Match, error) { return openflow.ParseMatch(spec) }

// ParseActions parses "out=2,set_nw_tos=4" into an action list.
func ParseActions(spec string) ([]Action, error) { return openflow.ParseActions(spec) }

// Output builds an output action.
func Output(port uint32) Action { return openflow.Output(port) }

// Subscribe creates an application's private packet-in buffer (§3.5).
func Subscribe(p *Proc, region, app string) (string, *Watch, error) {
	return yancfs.Subscribe(p, region, app)
}

// System applications (§4, §8), constructed over any region.

// NewTopod creates the LLDP topology discovery daemon.
func NewTopod(p *Proc, region string) *apps.Topod { return apps.NewTopod(p, region) }

// NewRouter creates the reactive exact-match router daemon.
func NewRouter(p *Proc, region string) *apps.Router { return apps.NewRouter(p, region) }

// NewARPd creates the ARP responder daemon.
func NewARPd(p *Proc, region string) *apps.ARPd { return apps.NewARPd(p, region) }

// NewDHCPd creates the DHCP daemon serving `count` addresses starting at
// start; leases are files under <region>/services/dhcp/leases.
func NewDHCPd(p *Proc, region string, start ethernet.IP4, count int) *apps.DHCPd {
	return apps.NewDHCPd(p, region, start, count)
}

// NewFlowPusher creates the static flow pusher.
func NewFlowPusher(p *Proc, region string) *apps.FlowPusher { return apps.NewFlowPusher(p, region) }

// NewAuditor creates the cron-style policy auditor.
func NewAuditor(p *Proc, region string) *apps.Auditor { return apps.NewAuditor(p, region) }

// NewSlicer creates a header-space slice over member switches (§4.2).
func (c *Controller) NewSlicer(region, name string, filter Match, switches []string) *apps.Slicer {
	return apps.NewSlicer(c.y, region, name, filter, switches)
}

// NewBigSwitch creates a single-big-switch virtualization view (§4.2).
func (c *Controller) NewBigSwitch(region, name string, portMap map[uint32]apps.PortRef) *apps.BigSwitch {
	return apps.NewBigSwitch(c.y, region, name, portMap)
}

// NewMiddlebox creates a stateful-firewall middlebox whose connection
// state and policy live in the file system under
// <region>/middleboxes/<name> (§7.2). Start the returned driver to begin
// the two-way sync; migrate live state between middleboxes with cp/mv.
func (c *Controller) NewMiddlebox(region, name string) (*middlebox.Engine, *middlebox.Driver) {
	engine := middlebox.NewEngine(name)
	return engine, middlebox.NewDriver(c.y, region, engine)
}

// PortRef names a physical (switch, port) pair for virtualization maps.
type PortRef = apps.PortRef
