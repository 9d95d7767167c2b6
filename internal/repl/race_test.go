//go:build race

package repl

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
