//go:build race

package core

// raceEnabled reports a build with the race detector, whose shadow memory
// for every allocation it tracks shows in the resident set.
const raceEnabled = true
