//go:build !race

package osp

// raceEnabled reports a -race build, which slows the brute-force vertex
// oracle about 25×.
const raceEnabled = false
