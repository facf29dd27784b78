//go:build race

package phishnet

// raceEnabled reports that the test binary was built with the race
// detector, under which a latency bound says nothing about the transport.
const raceEnabled = true
