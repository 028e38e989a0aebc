//go:build race

package dataset

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so Frame may allocate a fresh generator.
const raceEnabled = true
