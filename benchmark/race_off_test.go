//go:build !race

package main

// raceEnabled reports whether the binary was built with the race detector.
const raceEnabled = false
