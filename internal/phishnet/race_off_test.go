//go:build !race

package phishnet

const raceEnabled = false
