//go:build race

package serve

// raceEnabled mirrors whether this test binary runs under the race
// detector, whose sync.Pool drops a share of Puts on purpose — so
// allocation budgets cannot hold there.
const raceEnabled = true
