//go:build !race

package webos

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
