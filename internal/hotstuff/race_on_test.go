//go:build race

package hotstuff

const raceEnabled = true
