//go:build race

package experiments

const raceEnabled = true
