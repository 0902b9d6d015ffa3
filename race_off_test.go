//go:build !race

package ninf_test

const raceEnabled = false
