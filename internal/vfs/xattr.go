package vfs

import (
	"maps"
	"sort"
)

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
	n.editXattrs(attr, value, false)
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
	if !n.editXattrs(attr, nil, true) {
		return pathErr("removexattr", path, ErrNoAttr)
	}
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

// editXattrs publishes a copy of n's attribute map with a private copy of
// value stored under attr — or, with remove set, with attr deleted — and
// stamps the change. A writer that loses the swap to another edit redoes
// its own on the winner's map, so concurrent edits of different
// attributes all land. It reports false, changing nothing, when there is
// no attr to remove.
func (n *inode) editXattrs(attr string, value []byte, remove bool) bool {
	if !remove {
		value = append([]byte(nil), value...)
	}
	for {
		cur, old := n.loadXattrs()
		if _, ok := cur[attr]; remove && !ok {
			return false
		}
		m := maps.Clone(cur)
		if m == nil {
			m = make(map[string][]byte, 1)
		}
		if remove {
			delete(m, attr)
		} else {
			m[attr] = value
		}
		if n.swapXattrs(old, m) {
			n.touchC()
			return true
		}
	}
}
