//go:build !race

package main

// raceEnabled mirrors race_on_test.go for normal builds.
const raceEnabled = false
