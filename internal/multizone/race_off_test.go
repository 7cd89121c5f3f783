//go:build !race

package multizone

const raceEnabled = false
