//go:build !race

package pfold

const raceEnabled = false
