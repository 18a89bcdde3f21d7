package serve

import (
	"reflect"
	"testing"

	"repro/sig"
	"repro/sig/adapt"
	"repro/sig/shard"
)

// TestConfigSurface is the one pin for everything a caller can set: the field
// counts of the four configuration structs. Each independently settable value
// doubles the configurations the tests, goldens and benchmark must cover, so
// the count moves only by a deliberate edit here.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		cfg    any
		fields int
	}{
		{sig.Config{}, 6},
		{Config{}, 11},
		{shard.Config{}, 2},
		{adapt.Config{}, 7},
	} {
		typ := reflect.TypeOf(c.cfg)
		if got := typ.NumField(); got != c.fields {
			t.Errorf("%v has %d fields, pinned at %d. A new knob needs two existing non-test callers that set "+
				"different values (simplicity-review, \"Options\") — one value in use is a constant — and a removed "+
				"one needs none; either way, edit this pin on purpose.", typ, got, c.fields)
		}
	}
}
