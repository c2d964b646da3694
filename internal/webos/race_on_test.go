//go:build race

package webos

// raceEnabled reports whether the race detector is compiled in. The
// detector instruments every allocation, so allocation-count pins are
// meaningless (and fail) under -race.
const raceEnabled = true
