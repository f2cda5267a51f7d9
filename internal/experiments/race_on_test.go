//go:build race

package experiments

// raceEnabled gates the full experiment sweep and the pure-physics
// sweeps: the race detector's ~10-20x slowdown pushes them toward the
// package timeout, they start no goroutines of their own, and the non-race
// experiment step runs every one of their asserts.
const raceEnabled = true
