//go:build race

package datacell

// raceEnabled says the race detector instruments this build, which runs
// the engine several times slower: wall-clock bounds scale by it.
const raceEnabled = true
