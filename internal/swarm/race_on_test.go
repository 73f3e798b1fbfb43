//go:build race

package swarm

const raceEnabled = true
