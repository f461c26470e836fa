//go:build race

package server

// raceEnabled reports whether this test binary was built with -race, whose
// allocator overhead TestIdleDaemonHeap's thresholds were not sized for.
const raceEnabled = true
