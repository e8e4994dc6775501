//go:build !race

package multigrid

const raceEnabled = false
