//go:build race

package analysis_test

// The race detector makes sync.Pool drop a random quarter of what is
// put back, so the pooled scratch of the feasibility tests reallocates
// at random and allocation counts mean nothing.
func init() { raceEnabled = true }
