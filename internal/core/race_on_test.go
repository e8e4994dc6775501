//go:build race

package core

// raceEnabled reports that the race detector is active; its
// instrumentation allocates, so allocation-count assertions are skipped.
const raceEnabled = true
