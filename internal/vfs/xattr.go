package vfs

import "sort"

// Extended attributes (§5.1): arbitrary metadata developers can attach to
// network resources. yanc's distributed layer uses them to request
// per-subtree consistency levels (§6).

// SetXattr sets an extended attribute on the node at path. Requires write
// permission on the node.
func (p *Proc) SetXattr(path, attr string, value []byte) error {
	if err := p.charge("setxattr", len(value)); err != nil {
		return err
	}
	p.fs.stats.attrs.Add(1)
	fs := p.fs
	// Lock-free resolve: xattr state itself is stripe-protected.
	n, err := fs.lookupRO(p.cred, path, p.opts(true))
	if err != nil {
		return pathErr("setxattr", path, err)
	}
	if n == nil {
		return pathErr("setxattr", path, ErrNotExist)
	}
	if !allows(n, p.cred, wantWrite) {
		return pathErr("setxattr", path, ErrAccess)
	}
	s := fs.lockNode(n)
	defer s.mu.Unlock()
	setXattr(n, attr, value)
	n.touchC(fs.now())
	return nil
}

// GetXattr reads an extended attribute.
func (p *Proc) GetXattr(path, attr string) ([]byte, error) {
	if err := p.charge("getxattr", 0); err != nil {
		return nil, err
	}
	p.fs.stats.attrs.Add(1)
	fs := p.fs
	n, err := fs.lookupRO(p.cred, path, p.opts(true))
	if err != nil {
		return nil, pathErr("getxattr", path, err)
	}
	if n == nil {
		return nil, pathErr("getxattr", path, ErrNotExist)
	}
	if !allows(n, p.cred, wantRead) {
		return nil, pathErr("getxattr", path, ErrAccess)
	}
	s := fs.rlockNode(n)
	defer s.mu.RUnlock()
	v, ok := n.xattrs()[attr]
	if !ok {
		return nil, pathErr("getxattr", path, ErrNoAttr)
	}
	return append([]byte(nil), v...), nil
}

// ListXattr returns attribute names in sorted order.
func (p *Proc) ListXattr(path string) ([]string, error) {
	if err := p.charge("listxattr", 0); err != nil {
		return nil, err
	}
	p.fs.stats.attrs.Add(1)
	fs := p.fs
	n, err := fs.lookupRO(p.cred, path, p.opts(true))
	if err != nil {
		return nil, pathErr("listxattr", path, err)
	}
	if n == nil {
		return nil, pathErr("listxattr", path, ErrNotExist)
	}
	s := fs.rlockNode(n)
	defer s.mu.RUnlock()
	xattrs := n.xattrs()
	names := make([]string, 0, len(xattrs))
	for k := range xattrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names, nil
}

// RemoveXattr deletes an extended attribute.
func (p *Proc) RemoveXattr(path, attr string) error {
	if err := p.charge("removexattr", 0); err != nil {
		return err
	}
	p.fs.stats.attrs.Add(1)
	fs := p.fs
	n, err := fs.lookupRO(p.cred, path, p.opts(true))
	if err != nil {
		return pathErr("removexattr", path, err)
	}
	if n == nil {
		return pathErr("removexattr", path, ErrNotExist)
	}
	if !allows(n, p.cred, wantWrite) {
		return pathErr("removexattr", path, ErrAccess)
	}
	s := fs.lockNode(n)
	defer s.mu.Unlock()
	xattrs := n.xattrs()
	if _, ok := xattrs[attr]; !ok {
		return pathErr("removexattr", path, ErrNoAttr)
	}
	delete(xattrs, attr)
	n.touchC(fs.now())
	return nil
}

// GetXattrString is a convenience for string-valued attributes.
func (p *Proc) GetXattrString(path, attr string) (string, error) {
	v, err := p.GetXattr(path, attr)
	if err != nil {
		return "", err
	}
	return string(v), nil
}

// setXattr stores a private copy of value under attr. The caller must
// hold n's stripe in write mode.
func setXattr(n *inode, attr string, value []byte) {
	e := n.extend()
	if e.xattrs == nil {
		e.xattrs = make(map[string][]byte)
	}
	e.xattrs[attr] = append([]byte(nil), value...)
}
