//go:build !race

package swarm

// raceEnabled reports whether the race detector instruments this build;
// alloc-count guards are skipped under it (the detector itself allocates).
const raceEnabled = false
