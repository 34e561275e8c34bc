//go:build race

package vfs

// raceEnabled reports a -race build. The race detector's sync.Pool drops
// some of what is put back, so a pin on allocation counts reads higher
// under it.
const raceEnabled = true
