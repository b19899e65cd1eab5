//go:build race

package core

// Under the race detector sync.Pool drops a share of what is put back
// on purpose, so pooled buffers are reallocated at random.
func init() { raceEnabled = true }
