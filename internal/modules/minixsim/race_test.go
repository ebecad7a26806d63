//go:build race

package minixsim_test

// raceEnabled reports a -race build.
const raceEnabled = true
