package phy

import "sync/atomic"

// CountDecisions makes every medium count the receptions it resolves
// and those that needed the exact fallback until the returned function
// is called, which stops counting and returns both counts. Start it
// before any medium runs.
func CountDecisions() (stop func() (receptions, exact int64)) {
	c := new(struct{ receptions, exact atomic.Int64 })
	decisionCounts = c
	return func() (int64, int64) {
		decisionCounts = nil
		return c.receptions.Load(), c.exact.Load()
	}
}
