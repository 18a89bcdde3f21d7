//go:build race

package sig

// raceEnabled: under -race, sync.Pool deliberately drops ~25% of Puts, so
// which pooled slab a draw returns is not deterministic.
const raceEnabled = true
