package core

// RaceEnabled lets the external test package see whether the race detector
// is on.
const RaceEnabled = raceEnabled
