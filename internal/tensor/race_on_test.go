//go:build race

package tensor

// raceEnabled thins the numeric tables: the race detector slows the naive
// oracle about tenfold, and it is there for the worker fan-out, not the sums.
const raceEnabled = true
