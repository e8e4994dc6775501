//go:build race

package multigrid

// raceEnabled reports that the race detector is active; its
// instrumentation (and sync.Pool, which drops items at random under it)
// allocates, so allocation-count assertions on the FFT path are skipped.
const raceEnabled = true
