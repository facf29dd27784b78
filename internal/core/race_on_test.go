//go:build race

package core

// raceEnabled reports that the test binary was built with the race
// detector, under which an empty task body is no longer fine-grain.
const raceEnabled = true
