//go:build !race

package netsim

// raceDetectorOn is set by this file and race_on_test.go through
// their build tags: the probe overhead assertion is meaningless under
// the race detector's instrumentation and is skipped there.
const raceDetectorOn = false
