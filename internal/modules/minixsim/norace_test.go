//go:build !race

package minixsim_test

const raceEnabled = false
