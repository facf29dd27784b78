//go:build race

package wire

// raceEnabled reports that the test binary was built with the race
// detector, whose instrumentation allocates, so an allocation budget says
// nothing about the codec.
const raceEnabled = true
