//go:build race

package pfold

// raceEnabled reports that the test binary was built with the race
// detector, under which timings say nothing.
const raceEnabled = true
