//go:build race

package flow

// raceEnabled skips the exact-BDD frontier gate under the race
// detector, where the x4 twin's sifted builds take minutes, not
// seconds. The plain `go test` run still proves it.
const raceEnabled = true
