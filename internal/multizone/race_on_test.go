//go:build race

package multizone

const raceEnabled = true
