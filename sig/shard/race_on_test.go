//go:build race

package shard

// raceEnabled: under -race, sync.Pool deliberately drops ~25% of Puts, so
// pooled paths re-allocate and strict zero-alloc assertions cannot hold.
const raceEnabled = true
