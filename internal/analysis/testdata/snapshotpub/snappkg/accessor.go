package snappkg

import "slices"

// Writing through an accessor's view of a published node is the same
// bug as writing through its fields: the view shares the node's array.
func (d *dirNode) replaceInPlace(i int, c *inode) *dirNode {
	d.leaf()[i].c = c // want "mutated after publish"
	return d
}

// So is writing through a child the branch accessor hands out.
func (d *dirNode) recountInPlace(i int) {
	d.branch()[i].n++ // want "mutated after publish"
}

// An alias of a view, taken from a loaded root, is published too.
func (tx *Tx) MutateLeafAlias(c *inode) {
	ents := tx.fs.root.kids().leaf()
	ents[0] = dirEnt{"x", c} // want "mutated after publish"
}

// A node a method hands back may be its receiver, so what a method
// called on a published node returns is published.
func (tx *Tx) MutateChildOfLoaded() {
	kid := tx.fs.root.kids().branch()[0]
	kid.ents[0].name = "y" // want "mutated after publish"
}

// Copying the view first is the path copy: the clone is private.
func (d *dirNode) replaceByCopy(i int, c *inode) *dirNode {
	out := slices.Clone(d.leaf())
	out[i].c = c
	return &dirNode{n: len(out), ents: out}
}

// A fresh node's views are its builder's to fill.
func buildFresh(c *inode) *dirNode {
	nd := &dirNode{ents: make([]dirEnt, 1)}
	nd.leaf()[0].c = c
	return nd
}
