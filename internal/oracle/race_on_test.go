//go:build race

package oracle

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of the evaluators put back.
const raceEnabled = true
