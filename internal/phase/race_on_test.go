//go:build race

package phase_test

// raceEnabled skips the oracle's slowest twins under the race detector,
// where each takes it ~5–10 s. The plain `go test` run still checks
// them.
const raceEnabled = true
