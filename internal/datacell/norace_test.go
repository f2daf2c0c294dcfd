//go:build !race

package datacell

// raceEnabled says the race detector instruments this build.
const raceEnabled = false
