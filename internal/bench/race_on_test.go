//go:build race

package bench

// raceEnabled reports that this binary was built with the race
// detector (see metrics_test.go for why that matters).
const raceEnabled = true
