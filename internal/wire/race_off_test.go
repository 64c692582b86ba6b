//go:build !race

package wire

// raceEnabled reports whether the race detector is compiled in (the wire
// tests cannot import internal/testutil, which imports this package).
const raceEnabled = false
