//go:build race

package core

// raceEnabled reports whether this test binary is race-instrumented.
const raceEnabled = true
