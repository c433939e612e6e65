//go:build !race

package phase_test

const raceEnabled = false
