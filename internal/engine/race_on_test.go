//go:build race

package engine

// raceEnabled reports whether the race detector is instrumenting this
// build; its shadow allocations break allocs-per-op assertions.
const raceEnabled = true
