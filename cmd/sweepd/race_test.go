//go:build race

package main

// raceEnabled reports a race-detector build, under which allocation
// figures mean nothing: the detector instruments allocations and drops
// sync.Pool entries at random.
const raceEnabled = true
