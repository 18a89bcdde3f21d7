package shard

import (
	"fmt"
)

// Defaults for AutoscalerConfig's zero fields.
const (
	// DefaultScaleUpAt: sustained load above this adds a shard. The load
	// signal is the same normalized measure adapt.TargetLoad regulates
	// toward 1.0, so >1 means work the fleet cannot absorb by degrading
	// quality alone.
	DefaultScaleUpAt = 1.2
	// DefaultScaleDownAt: sustained load below this removes a shard.
	DefaultScaleDownAt = 0.4
	// DefaultScaleUpAfter / DefaultScaleDownAfter are the hysteresis: how
	// many consecutive waves must cross a threshold before acting. Down is
	// slower than up — capacity mistakes cost quality, idle costs watts.
	DefaultScaleUpAfter   = 2
	DefaultScaleDownAfter = 6
	// DefaultScaleCooldown is how many waves after any action the scaler
	// stays quiet, so the fleet's response is observed before acting again.
	DefaultScaleCooldown = 3
)

// AutoscalerConfig parameterizes an Autoscaler. Zero fields take defaults.
type AutoscalerConfig struct {
	// MinShards/MaxShards bound the live fleet size. MinShards defaults to
	// 1; MaxShards defaults to the router's slot capacity and cannot
	// exceed it.
	MinShards int
	MaxShards int
	// UpAt/DownAt are the load thresholds (must satisfy DownAt < UpAt).
	UpAt   float64
	DownAt float64
	// UpAfter/DownAfter are the consecutive waves a threshold must be
	// crossed before the scaler acts (hysteresis).
	UpAfter   int
	DownAfter int
	// Cooldown is the waves the scaler stays quiet after acting.
	Cooldown int
}

func (c AutoscalerConfig) withDefaults(slots int) AutoscalerConfig {
	if c.MinShards == 0 {
		c.MinShards = 1
	}
	if c.MaxShards == 0 {
		c.MaxShards = slots
	}
	if c.UpAt == 0 {
		c.UpAt = DefaultScaleUpAt
	}
	if c.DownAt == 0 {
		c.DownAt = DefaultScaleDownAt
	}
	if c.UpAfter == 0 {
		c.UpAfter = DefaultScaleUpAfter
	}
	if c.DownAfter == 0 {
		c.DownAfter = DefaultScaleDownAfter
	}
	if c.Cooldown == 0 {
		c.Cooldown = DefaultScaleCooldown
	}
	return c
}

// Autoscaler grows and shrinks a Router's live fleet between MinShards and
// MaxShards from the wave-boundary load observations an admission
// controller already produces (the adapt.Target observation stream), with
// threshold hysteresis and a post-action cooldown so steady load never
// oscillates the fleet.
//
// Observe is pure arithmetic over its inputs plus AddShard/DrainShard calls
// — no clocks, no randomness — so a replayed load trace reproduces the
// exact same scaling decisions. It is not safe for concurrent use; drive it
// from the wave loop (after WaitPhase returns, as serve's runWave does), which
// is single-threaded by construction.
type Autoscaler struct {
	r   *Router
	cfg AutoscalerConfig

	upRun   int
	downRun int
	cool    int
}

// NewAutoscaler validates the config against the router's slot capacity.
func NewAutoscaler(r *Router, cfg AutoscalerConfig) (*Autoscaler, error) {
	cfg = cfg.withDefaults(r.Shards())
	if cfg.MinShards < 1 {
		return nil, fmt.Errorf("shard: autoscaler MinShards %d < 1", cfg.MinShards)
	}
	if cfg.MaxShards < cfg.MinShards {
		return nil, fmt.Errorf("shard: autoscaler MaxShards %d below MinShards %d", cfg.MaxShards, cfg.MinShards)
	}
	if cfg.MaxShards > r.Shards() {
		return nil, fmt.Errorf("shard: autoscaler MaxShards %d above slot capacity %d", cfg.MaxShards, r.Shards())
	}
	if !(cfg.DownAt < cfg.UpAt) {
		return nil, fmt.Errorf("shard: autoscaler DownAt %.3f must be below UpAt %.3f", cfg.DownAt, cfg.UpAt)
	}
	if cfg.UpAfter < 1 || cfg.DownAfter < 1 || cfg.Cooldown < 0 {
		return nil, fmt.Errorf("shard: autoscaler hysteresis/cooldown out of range")
	}
	return &Autoscaler{r: r, cfg: cfg}, nil
}

// Observe feeds one wave's load observation and returns the shard-count
// delta it acted with: +1 (grew), -1 (shrank), 0 (held). Cooldown waves
// freeze the streak counters too, so the post-action transient cannot seed
// the next action.
func (a *Autoscaler) Observe(load float64) int {
	if a.cool > 0 {
		a.cool--
		return 0
	}
	switch {
	case load >= a.cfg.UpAt:
		a.upRun++
		a.downRun = 0
	case load <= a.cfg.DownAt:
		a.downRun++
		a.upRun = 0
	default:
		a.upRun, a.downRun = 0, 0
	}
	if a.upRun >= a.cfg.UpAfter && a.r.Live() < a.cfg.MaxShards {
		if _, err := a.r.AddShard(); err == nil {
			a.acted()
			return +1
		}
		// ErrShardDraining: the freed slot is still closing; retry next
		// wave (the streak stays satisfied).
		return 0
	}
	if a.downRun >= a.cfg.DownAfter && a.r.Live() > a.cfg.MinShards {
		if slot := a.highestRoutable(); slot >= 0 {
			if err := a.r.DrainShard(slot); err == nil {
				a.acted()
				return -1
			}
		}
	}
	return 0
}

// highestRoutable picks the scale-down victim: the highest-index routable
// slot, the last one AddShard (lowest free slot first) would fill, so the
// fleet stays packed into its low slots.
func (a *Autoscaler) highestRoutable() int {
	for j := a.r.Shards() - 1; j >= 0; j-- {
		if a.r.routable(j) {
			return j
		}
	}
	return -1
}

// acted restarts the streaks and the cooldown after an action.
func (a *Autoscaler) acted() {
	a.upRun, a.downRun = 0, 0
	a.cool = a.cfg.Cooldown
}
