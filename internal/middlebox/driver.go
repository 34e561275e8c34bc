package middlebox

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// DirMiddleboxes is the region directory middlebox drivers populate.
const DirMiddleboxes = "/middleboxes"

// Driver is the yanc middlebox driver of §7.2: it materializes a
// middlebox under <region>/middleboxes/<name>/ and keeps the file system
// and the engine in sync in both directions:
//
//	state/<conn-key>/        one directory per tracked connection
//	    proto src_ip src_port dst_ip dst_port state packets bytes
//	policy.default_deny_inbound
//	policy.allow_inbound_ports
//	counters/accepted counters/dropped   (live, procfs-style)
//
// Writing policy files reconfigures the engine. Creating a connection
// directory (for instance by cp-ing one from another middlebox's state/)
// inserts live state; removing it evicts — "moving state around" with
// coreutils instead of a custom protocol.
type Driver struct {
	Y      *yancfs.FS
	Region string
	Engine *Engine

	mu      sync.Mutex
	p       *vfs.Proc
	base    string
	watch   *vfs.Watch
	stopped chan struct{}
	// selfWrites guards against reacting to our own mirror writes.
	selfWrites map[string]int
}

// NewDriver creates a driver binding one engine into a region.
func NewDriver(y *yancfs.FS, region string, engine *Engine) *Driver {
	return &Driver{
		Y:          y,
		Region:     region,
		Engine:     engine,
		p:          y.Root(),
		selfWrites: make(map[string]int),
	}
}

// Base returns the middlebox's directory path.
func (d *Driver) Base() string {
	return vfs.Join(d.Region, DirMiddleboxes, d.Engine.Name)
}

// Start populates the directory and begins the two sync loops.
func (d *Driver) Start() error {
	d.base = d.Base()
	p := d.p
	if err := p.MkdirAll(vfs.Join(d.base, "state"), 0o755); err != nil {
		return err
	}
	if err := p.MkdirAll(vfs.Join(d.base, "counters"), 0o755); err != nil {
		return err
	}
	if err := d.writePolicyFiles(); err != nil {
		return err
	}
	// Live counters, procfs-style.
	if err := d.Y.VFS().WithTx(func(tx *vfs.Tx) error {
		for _, name := range []string{"accepted", "dropped"} {
			file := name
			if err := tx.SetSynthetic(vfs.Join(d.base, "counters", file), &vfs.Synthetic{
				Read: func() ([]byte, error) {
					a, dr := d.Engine.Stats()
					v := a
					if file == "dropped" {
						v = dr
					}
					return []byte(strconv.FormatUint(v, 10) + "\n"), nil
				},
			}, 0o444, 0, 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Engine -> fs mirroring.
	d.Engine.setConnChange(d.mirrorConn)
	// fs -> engine: watch for policy writes and state dirs appearing or
	// vanishing (the cp/mv migration path).
	w, err := p.AddWatch(d.base, vfs.OpWrite|vfs.OpCreate|vfs.OpRemove, vfs.Recursive(), vfs.BufferSize(4096))
	if err != nil {
		return err
	}
	d.watch = w
	d.stopped = make(chan struct{})
	go d.watchLoop()
	return nil
}

// Stop shuts the driver down.
func (d *Driver) Stop() {
	if d.watch == nil {
		return
	}
	d.Engine.setConnChange(nil)
	d.watch.Close()
	<-d.stopped
}

func (d *Driver) writePolicyFiles() error {
	pol := d.Engine.PolicySnapshot()
	deny := "0"
	if pol.DefaultDenyInbound {
		deny = "1"
	}
	ports := make([]string, len(pol.AllowInboundPorts))
	for i, pt := range pol.AllowInboundPorts {
		ports[i] = strconv.FormatUint(uint64(pt), 10)
	}
	for file, content := range map[string]string{
		"policy.default_deny_inbound": deny,
		"policy.allow_inbound_ports":  strings.Join(ports, ","),
	} {
		path := vfs.Join(d.base, file)
		d.noteSelfWrite(path)
		if err := d.p.WriteString(path, content+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func (d *Driver) noteSelfWrite(path string) {
	d.mu.Lock()
	d.selfWrites[path]++
	d.mu.Unlock()
}

func (d *Driver) isSelfWrite(path string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.selfWrites[path] > 0 {
		d.selfWrites[path]--
		if d.selfWrites[path] == 0 {
			delete(d.selfWrites, path)
		}
		return true
	}
	return false
}

// mirrorConn reflects one engine state change into the file system, in
// one transaction of the driver's own Proc: its checks and its ids.
func (d *Driver) mirrorConn(c Conn, removed bool) {
	base := vfs.Join(d.base, "state", c.Key.String())
	if removed {
		_ = d.p.WithTx(func(tx *vfs.Tx) error {
			if tx.Exists(base) {
				return tx.Remove(base)
			}
			return nil
		})
		return
	}
	_ = d.p.WithTx(func(tx *vfs.Tx) error {
		cred := tx.Creator()
		if !tx.Exists(base) {
			if err := tx.Mkdir(base, 0o755, cred.UID, cred.GID); err != nil {
				return err
			}
		}
		for file, content := range map[string]string{
			"proto":    strconv.FormatUint(uint64(c.Key.Proto), 10),
			"src_ip":   c.Key.SrcIP.String(),
			"src_port": strconv.FormatUint(uint64(c.Key.SrcPort), 10),
			"dst_ip":   c.Key.DstIP.String(),
			"dst_port": strconv.FormatUint(uint64(c.Key.DstPort), 10),
			"state":    c.State,
			"packets":  strconv.FormatUint(c.Packets, 10),
			"bytes":    strconv.FormatUint(c.Bytes, 10),
		} {
			if err := tx.WriteFile(vfs.Join(base, file), []byte(content+"\n"), 0o644, cred.UID, cred.GID); err != nil {
				return err
			}
		}
		return nil
	})
}

func (d *Driver) watchLoop() {
	defer close(d.stopped)
	stateDir := vfs.Join(d.base, "state")
	for ev := range d.watch.C {
		switch {
		case ev.Op == vfs.OpWrite && strings.HasPrefix(vfs.Base(ev.Path), "policy."):
			if !d.isSelfWrite(ev.Path) {
				d.reloadPolicy()
			}
		case ev.Op == vfs.OpCreate && ev.IsDir && vfs.Dir(ev.Path) == stateDir:
			// State directory appeared: if the engine doesn't know it,
			// someone imported it (cp from another middlebox). Wait a
			// beat for its files, then load.
			d.importConn(ev.Path)
		case ev.Op == vfs.OpRemove && ev.IsDir && vfs.Dir(ev.Path) == stateDir:
			if key, err := ParseConnKey(vfs.Base(ev.Path)); err == nil {
				if _, known := d.Engine.Lookup(key); known {
					d.Engine.RemoveConn(key)
				}
			}
		}
	}
}

func (d *Driver) reloadPolicy() {
	pol := Policy{}
	if s, err := d.p.ReadString(vfs.Join(d.base, "policy.default_deny_inbound")); err == nil {
		pol.DefaultDenyInbound = strings.TrimSpace(s) == "1"
	}
	if s, err := d.p.ReadString(vfs.Join(d.base, "policy.allow_inbound_ports")); err == nil {
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			if v, err := strconv.ParseUint(tok, 10, 16); err == nil {
				pol.AllowInboundPorts = append(pol.AllowInboundPorts, uint16(v))
			}
		}
	}
	d.Engine.SetPolicy(pol)
}

// importConn loads a state directory into the engine (retrying briefly:
// a cp writes the directory before its files).
func (d *Driver) importConn(path string) {
	key, err := ParseConnKey(vfs.Base(path))
	if err != nil {
		return
	}
	if _, known := d.Engine.Lookup(key); known {
		return // our own mirror write
	}
	for attempt := 0; attempt < 20; attempt++ {
		c, err := d.readConn(path, key)
		if err == nil {
			d.Engine.InsertConn(c)
			return
		}
		time.Sleep(2 * time.Millisecond) //yancvet:wallclock watch/mirror settle retry paces real goroutines
	}
}

func (d *Driver) readConn(path string, key ConnKey) (Conn, error) {
	now := d.Engine.Now()
	c := Conn{Key: key, Created: now, LastSeen: now}
	state, err := d.p.ReadString(vfs.Join(path, "state"))
	if err != nil {
		return c, err
	}
	c.State = strings.TrimSpace(state)
	if c.State == "" {
		return c, fmt.Errorf("middlebox: empty state file")
	}
	if s, err := d.p.ReadString(vfs.Join(path, "packets")); err == nil {
		c.Packets, _ = strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	}
	if s, err := d.p.ReadString(vfs.Join(path, "bytes")); err == nil {
		c.Bytes, _ = strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	}
	return c, nil
}
