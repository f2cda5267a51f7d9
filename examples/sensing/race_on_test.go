//go:build race

package main

// raceEnabled gates the example's run: its decode takes seconds without
// the race detector and starts no goroutines of its own; the non-race
// test step runs it.
const raceEnabled = true
