//go:build race

package main

// raceEnabled gates the record→replay drive: it takes ~5 s without the
// race detector, starts no goroutines of its own, and the non-race test
// step runs it.
const raceEnabled = true
