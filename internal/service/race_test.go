//go:build race

package service

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
