//go:build !race

package yancfs

const raceEnabled = false
