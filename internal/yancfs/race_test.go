//go:build race

package yancfs

// raceEnabled reports a -race build. The race detector turns the tiny
// allocator off, so a pin on allocated bytes reads higher under it.
const raceEnabled = true
