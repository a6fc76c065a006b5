//go:build race

package query

// The race detector's sync.Pool drops a random share of Puts, so a
// pooled buffer is not always warm.
func init() { raceEnabled = true }
