package serve

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
	"repro/sig/adapt"
)

// testCosts are the declared request costs of the deterministic tests:
// degraded work is ~13% of accurate work, like the sobel kernels.
const (
	costAcc = 30_000.0
	costDeg = 4_000.0
)

// newTestServer builds a server sized so `base` accurate requests fill 60%
// of a wave — light load at full quality, 4x that is genuine overload. The
// size holds wave after wave on a frozen clock (see frozen), unless mut sets
// a WavePeriod of its own: then it runs on the wall clock, sized by it.
func newTestServer(t *testing.T, base int, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Workers:    2,
		QueueLimit: 1024,
	}
	if mut != nil {
		mut(&cfg)
	}
	if cfg.WavePeriod == 0 {
		cfg = frozen(cfg, float64(base)*(costAcc/0.6))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// frozen fixes cfg's capacity at budget cost units per wave under the one
// budget rule: a FakeClock nobody advances (cfg's own, if it has one)
// measures every wave at zero, so the pacer holds the cadence at MinPeriod
// and prices each wave at workers × MinPeriod.
func frozen(cfg Config, budget float64) Config {
	if cfg.Clock == nil {
		cfg.Clock = NewFakeClock()
	}
	cfg.WavePeriod = time.Duration(budget / float64(cfg.Workers))
	cfg.MinPeriod = cfg.WavePeriod
	return cfg
}

// fakeClock is the FakeClock a frozen server runs on, for tests that move
// time past a deadline.
func fakeClock(s *Server) *FakeClock { return s.clock.(*FakeClock) }

// request builds the i-th deterministic test request: nine significance
// levels, declared costs, a degraded body. The counters are atomic: with
// Workers >= 2 the bodies of one wave run concurrently.
func request(i int, served *[3]atomic.Int64) Request {
	return Request{
		Significance: float64(i%9+1) / 10,
		Handler:      func() { served[0].Add(1) },
		Degraded:     func() { served[1].Add(1) },
		CostAccurate: costAcc,
		CostDegraded: costDeg,
	}
}

func TestServeBasicWave(t *testing.T) {
	s := newTestServer(t, 8, nil)
	defer s.Close()
	var served [3]atomic.Int64
	var tks []*Ticket
	for i := 0; i < 8; i++ {
		tk, err := s.Submit(request(i, &served))
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	rep := s.RunWave()
	if rep.Admitted != 8 {
		t.Fatalf("admitted %d of 8 under a light wave", rep.Admitted)
	}
	acc, deg := 0, 0
	for _, tk := range tks {
		switch tk.Wait() {
		case OutcomeAccurate:
			acc++
		case OutcomeDegraded:
			deg++
		}
		if got := tk.WaveLatency(); got != 1 {
			t.Errorf("light-load wave latency %d, want 1", got)
		}
	}
	if acc != rep.Stats.Accurate || deg != rep.Stats.Approximate {
		t.Errorf("ticket outcomes %d/%d disagree with report %d/%d", acc, deg, rep.Stats.Accurate, rep.Stats.Approximate)
	}
	if int64(acc) != served[0].Load() || int64(deg) != served[1].Load() {
		t.Errorf("outcomes %d/%d vs bodies run %d/%d", acc, deg, served[0].Load(), served[1].Load())
	}
	tot := s.Totals()
	if tot.Submitted != 8 || tot.Completed != 8 || tot.Rejected != 0 {
		t.Errorf("totals %+v, want 8 submitted/completed, 0 rejected", tot)
	}
}

// TestServeDroppedRequestsCostZeroJoules pins the serving-side face of the
// runtime's skipped-task fix: requests shed without a degraded handler must
// contribute exactly 0 modeled joules, so the energy report equals the
// declared cost of what actually ran.
func TestServeDroppedRequestsCostZeroJoules(t *testing.T) {
	s := newTestServer(t, 8, func(c *Config) { c.Workers = 1 })
	var ran int
	// Two premium requests that always run, six zero-significance ones
	// that are always shed — and, with no degraded handler, dropped.
	var tks []*Ticket
	for i := 0; i < 8; i++ {
		req := Request{
			Significance: 0,
			Handler:      func() { ran++ },
			CostAccurate: costAcc,
			CostDegraded: costDeg, // declared but bodiless: must not be charged
		}
		if i < 2 {
			req.Significance = 1
		}
		tk, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	s.RunWave()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for i, tk := range tks {
		o := tk.Outcome()
		if i < 2 && o != OutcomeAccurate {
			t.Errorf("premium request %d served %v", i, o)
		}
		if i >= 2 {
			if o != OutcomeDropped {
				t.Errorf("bodiless request %d served %v, want dropped", i, o)
			} else {
				dropped++
			}
		}
	}
	if ran != 2 || dropped != 6 {
		t.Fatalf("ran %d, dropped %d; want 2/6", ran, dropped)
	}
	rep := s.Totals()
	want := sig.DefaultActiveWatts * 2 * costAcc * 1e-9
	if math.Abs(rep.Joules-want) > 1e-12 {
		t.Errorf("modeled %.12f J, want %.12f J: dropped requests were charged", rep.Joules, want)
	}
}

func TestServeQueueLimitAndClose(t *testing.T) {
	s := newTestServer(t, 4, func(c *Config) { c.QueueLimit = 3 })
	var served [3]atomic.Int64
	var tks []*Ticket
	full := 0
	for i := 0; i < 5; i++ {
		tk, err := s.Submit(request(i, &served))
		if errors.Is(err, ErrQueueFull) {
			full++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	if full != 2 {
		t.Errorf("%d rejections at QueueLimit 3 over 5 submissions, want 2", full)
	}
	if tot := s.Totals(); tot.Rejected != 2 {
		t.Errorf("rejected total %d, want 2", tot.Rejected)
	}
	// Close must drain: every accepted ticket completes.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tks {
		select {
		case <-tk.Done():
		default:
			t.Errorf("ticket %d not completed by Close", i)
		}
	}
	if _, err := s.Submit(request(9, &served)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close returned %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestServeMinRatioHonored: the quality contract floors degradation even
// under hopeless overload — excess then sheds as rejections.
func TestServeMinRatioHonored(t *testing.T) {
	s := newTestServer(t, 4, func(c *Config) {
		c.MinRatio = 0.6
		c.QueueLimit = 16
	})
	var served [3]atomic.Int64
	for w := 0; w < 12; w++ {
		for i := 0; i < 16; i++ { // 4x the base the budget was sized for
			s.Submit(request(w*16+i, &served))
		}
		if rep := s.RunWave(); rep.Control.NextRatio < 0.6-1e-9 {
			t.Fatalf("wave %d commanded ratio %.3f below the MinRatio contract", w, rep.Control.NextRatio)
		}
	}
	if tot := s.Totals(); tot.Rejected == 0 {
		t.Error("floored ratio under sustained overload must eventually reject")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeStartPump smokes the wall-clock mode: the background pump serves
// submitted requests without explicit RunWave calls.
func TestServeStartPump(t *testing.T) {
	s := newTestServer(t, 8, func(c *Config) { c.WavePeriod = 500_000 }) // 0.5ms
	s.Start()
	s.Start() // idempotent
	var served [3]atomic.Int64
	var tks []*Ticket
	for i := 0; i < 20; i++ {
		tk, err := s.Submit(request(i, &served))
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	for _, tk := range tks {
		tk.Wait()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tot := s.Totals()
	if tot.Completed != 20 {
		t.Errorf("pump completed %d of 20", tot.Completed)
	}
	if tot.Accurate+tot.Degraded+tot.Dropped != tot.Completed {
		t.Errorf("outcome conservation broken: %+v", tot)
	}
}

// TestServeIdleWavesRecoverRatio: an idle server must walk a shed ratio
// back up — empty waves are genuine zero demand for the load objective,
// not missing information — so the first requests after a lull are not
// punished for the last overload.
func TestServeIdleWavesRecoverRatio(t *testing.T) {
	s := newTestServer(t, 8, nil)
	defer s.Close()
	var served [3]atomic.Int64
	// Overload hard enough to shed the ratio.
	seq := 0
	for w := 0; w < 6; w++ {
		for i := 0; i < 32; i++ {
			s.Submit(request(seq, &served))
			seq++
		}
		s.RunWave()
	}
	// Drain the backlog so the idle phase really is idle.
	for s.Depth() > 0 {
		s.RunWave()
	}
	if r := s.Ratio(); r > 0.6 {
		t.Fatalf("overload phase left ratio at %.3f; the test needs a shed ratio to recover from", r)
	}
	for w := 0; w < 8; w++ {
		s.RunWave() // empty waves
	}
	if r := s.Ratio(); r < 0.95 {
		t.Errorf("ratio %.3f after 8 idle waves, want recovered to ~1", r)
	}
}

// TestServeCloseRacingRunWave pins the shutdown contract: Close arriving
// while an explicit RunWave is in flight must let that wave finish, drain
// the rest of the queue, and resolve every accepted ticket exactly once —
// a double resolution would panic the ticket's channel close, a leak would
// leave a ticket unresolved, and a torn-down engine under the wave would
// panic its batch submit. Before waves were serialized with shutdown,
// Close could close the runtime between a wave's admit and its submit.
func TestServeCloseRacingRunWave(t *testing.T) {
	for round := 0; round < 8; round++ {
		s := newTestServer(t, 8, nil)
		var served [3]atomic.Int64
		var tks []*Ticket
		for i := 0; i < 64; i++ {
			tk, err := s.Submit(request(i, &served))
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		waves := make(chan struct{})
		go func() {
			defer close(waves)
			// Hammer waves until shutdown turns them into no-ops.
			for i := 0; i < 64; i++ {
				s.RunWave()
			}
		}()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		<-waves
		for i, tk := range tks {
			select {
			case <-tk.Done():
			default:
				t.Fatalf("round %d: ticket %d leaked through the Close/RunWave race", round, i)
			}
		}
		tot := s.Totals()
		if tot.Completed != 64 || tot.Accurate+tot.Degraded+tot.Dropped != tot.Completed {
			t.Fatalf("round %d: outcome conservation broken across the race: %+v", round, tot)
		}
		// RunWave after shutdown stays a harmless no-op.
		if rep := s.RunWave(); rep.Admitted != 0 {
			t.Fatalf("round %d: post-Close wave admitted %d requests", round, rep.Admitted)
		}
	}
}

// TestServeConcurrentClose: a losing concurrent Close must block until the
// winning Close finished draining — when any Close returns, every accepted
// ticket is resolved and the energy report is frozen.
func TestServeConcurrentClose(t *testing.T) {
	s := newTestServer(t, 8, nil)
	var served [3]atomic.Int64
	var tks []*Ticket
	for i := 0; i < 48; i++ {
		tk, err := s.Submit(request(i, &served))
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	errs := make(chan error, 3)
	for c := 0; c < 3; c++ {
		go func() {
			err := s.Close()
			// The moment any Close returns, the contract must hold.
			for i, tk := range tks {
				select {
				case <-tk.Done():
				default:
					t.Errorf("ticket %d unresolved when a concurrent Close returned", i)
				}
			}
			errs <- err
		}()
	}
	for c := 0; c < 3; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if tot := s.Totals(); tot.Completed != 48 {
		t.Errorf("completed %d of 48 across concurrent Closes", tot.Completed)
	}
}

func TestServeConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := New(Config{MinRatio: 1.5}); err == nil {
		t.Error("MinRatio > 1 accepted")
	}
	// NaN fails every comparison, so a range check spelled as "outside"
	// lets it through; each must still be refused.
	nan := math.NaN()
	for name, cfg := range map[string]Config{
		"MinRatio":     {MinRatio: nan},
		"PriorityAt":   {PriorityAt: nan, QueueLimit: 8},
		"QualityFloor": {QualityFloor: nan},
		"WaveBudget":   {WaveBudget: nan},
		"+Inf budget":  {WaveBudget: math.Inf(1)},
	} {
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("%s: config %+v accepted", name, cfg)
		}
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{}); err == nil {
		t.Error("nil Handler accepted")
	}
	// Half-declared costs silently corrupt the modeled energy account and
	// must be rejected outright.
	h := func() {}
	if _, err := s.Submit(Request{Handler: h, CostAccurate: -1}); err == nil {
		t.Error("negative cost accepted")
	}
	// The runtime charges a body's cost as int64 nanoseconds, so a cost
	// from 2^63 on would wrap the energy account.
	for _, c := range []float64{nan, math.Inf(1), 1e19, math.MaxFloat64, 1 << 63} {
		if _, err := s.Submit(Request{Handler: h, CostAccurate: c}); err == nil {
			t.Errorf("accurate cost %v accepted", c)
		}
		if _, err := s.Submit(Request{Handler: h, Degraded: h, CostAccurate: 5, CostDegraded: c}); err == nil {
			t.Errorf("degraded cost %v accepted", c)
		}
	}
	// A NaN significance would be served as the special 0.0 and never
	// reach the priority lane.
	if _, err := s.Submit(Request{Handler: h, Significance: nan}); err == nil {
		t.Error("NaN significance accepted")
	}
	// Out of range, a significance above PriorityAt would queue as premium
	// and run as the special 1.0, one below 0 be dropped as the special 0.0.
	for _, v := range []float64{7, -3, 1 + 1e-9, math.Inf(1), math.Inf(-1)} {
		if _, err := s.Submit(Request{Handler: h, Significance: v}); err == nil {
			t.Errorf("significance %v accepted", v)
		}
	}
	if _, err := s.Submit(Request{Handler: h, Significance: 1}); err != nil {
		t.Errorf("significance 1 rejected: %v", err)
	}
	if _, err := s.Submit(Request{Handler: h, CostDegraded: 5}); err == nil {
		t.Error("CostDegraded without CostAccurate accepted")
	}
	if _, err := s.Submit(Request{Handler: h, Degraded: h, CostAccurate: 5}); err == nil {
		t.Error("declared CostAccurate with undeclared Degraded cost accepted")
	}
	if _, err := s.Submit(Request{Handler: h, CostAccurate: 5, CostDegraded: 1}); err != nil {
		t.Errorf("fully declared request rejected: %v", err)
	}
	if _, err := s.Submit(Request{Handler: h, CostAccurate: 5}); err != nil {
		t.Errorf("declared drop-only request rejected: %v", err)
	}
	if _, err := s.Submit(Request{Handler: h, Degraded: h}); err != nil {
		t.Errorf("fully undeclared request rejected: %v", err)
	}
	if _, err := s.Submit(Request{Handler: h, CostAccurate: math.Nextafter(1<<63, 0)}); err != nil {
		t.Errorf("the largest accurate cost below 2^63 rejected: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeCostSumsStayFinite: whatever costs callers declare, the lanes'
// backlog sums, the load signal and the energy account stay finite and
// non-negative. Two requests queued at the float64 maximum left the bulk
// lane's sum at +Inf after the queue drained, and every later wave's load
// at +Inf or NaN; one at 1e19 wrapped the runtime's int64 account negative.
func TestServeCostSumsStayFinite(t *testing.T) {
	s := newTestServer(t, 8, nil)
	defer s.Close()
	h := func() {}
	for _, c := range []float64{math.MaxFloat64, math.MaxFloat64, 1e19, math.Nextafter(1<<63, 0)} {
		_, _ = s.Submit(Request{Handler: h, CostAccurate: c}) // Submit refuses the ones the runtime cannot account
	}
	for w := 0; w < 6; w++ {
		rep := s.RunWave()
		s.mu.Lock()
		bulk := s.lanes[laneBulk].cost
		s.mu.Unlock()
		if load := s.Load(); math.IsNaN(load) || math.IsInf(load, 0) || math.IsInf(bulk.acc, 0) || math.IsNaN(bulk.acc) {
			t.Fatalf("wave %d: load %v, bulk lane cost sum %+v", rep.Stats.Wave, load, bulk)
		}
	}
	if tot := s.Totals(); s.Depth() != 0 || tot.Completed != tot.Submitted-tot.Rejected || !(tot.Joules >= 0) {
		t.Errorf("depth %d, totals %+v: want the queue drained and a non-negative energy account", s.Depth(), tot)
	}
}

// TestServeBusyAccountSaturates: one wave of two premium requests, each at
// the largest cost Submit accepts, charges more than the runtime's int64
// busy account holds. It wrapped to -2048 ns (Totals().Joules -2.4576e-05);
// it saturates at math.MaxInt64.
func TestServeBusyAccountSaturates(t *testing.T) {
	s, _ := newPaceServer(t, func(c *Config) { c.WaveBudget = 1 << 64 })
	defer s.Close()
	for range 2 {
		if _, err := s.Submit(Request{Significance: 1, Handler: func() {}, CostAccurate: math.Nextafter(1<<63, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.RunWave()
	if tot := s.Totals(); rep.Stats.Accurate != 2 || rep.Stats.Busy != math.MaxInt64 || !(tot.Joules > 0) {
		t.Fatalf("wave ran %d accurate for %d ns, Totals().Joules %v: want both, the account saturated", rep.Stats.Accurate, int64(rep.Stats.Busy), tot.Joules)
	}
}

// TestServeTotalsCountBeforeDone pins the contract that Totals lead Done,
// request by request: a caller that has seen k tickets resolve finds at
// least k requests in Totals, conserved across the outcome counters, while
// the rest of the wave is still running; the wave itself is in Totals by the
// time RunWave returns. The wave is large and the observer walks every
// ticket as it resolves, so a server that publishes a request before it
// counts it is caught mid-wave.
func TestServeTotalsCountBeforeDone(t *testing.T) {
	const n = 4096
	s := newTestServer(t, n, func(c *Config) { c.QueueLimit = n })
	defer s.Close()
	var served [3]atomic.Int64
	tks := make([]*Ticket, n)
	for i := range tks {
		var err error
		if tks[i], err = s.Submit(request(i, &served)); err != nil {
			t.Fatal(err)
		}
	}
	bad := make(chan string, 1)
	go func() {
		defer close(bad)
		for k, tk := range tks {
			<-tk.Done()
			tot := s.Totals()
			if tot.Completed <= int64(k) {
				bad <- fmt.Sprintf("%d tickets resolved, Totals hold %d", k+1, tot.Completed)
				return
			}
			if sum := tot.Accurate + tot.Degraded + tot.Dropped; sum != tot.Completed {
				bad <- fmt.Sprintf("Totals at Done do not conserve: %d+%d+%d != %d", tot.Accurate, tot.Degraded, tot.Dropped, tot.Completed)
				return
			}
		}
	}()
	if rep := s.RunWave(); rep.Admitted != n {
		t.Fatalf("admitted %d of %d: the wave must carry the whole batch", rep.Admitted, n)
	}
	if msg, failed := <-bad; failed {
		t.Error(msg)
	}
	if tot := s.Totals(); tot.Completed != n || tot.Waves != 1 {
		t.Errorf("Totals after the wave: %d completed over %d waves, want all %d of wave 1", tot.Completed, tot.Waves, n)
	}
}

// TestServeObservesOncePerWave pins what runWave's explicit call must keep:
// the admission controller observes every wave exactly once — loaded, empty,
// and the drain waves Close runs — in order, so step i sees wave i. The
// server's controller is swapped for one whose Measure records the wave it
// was handed, then prices it with the server's own signal.
func TestServeObservesOncePerWave(t *testing.T) {
	s := newTestServer(t, 8, nil)
	var seen []int
	ctl, err := adapt.New(adapt.Config{Objective: adapt.TargetLoad, Budget: DefaultTargetLoad,
		Measure: func(ws sig.WaveStats) float64 {
			seen = append(seen, ws.Wave)
			return s.measure(ws)
		}})
	if err != nil {
		t.Fatal(err)
	}
	s.ctl = ctl
	var served [3]atomic.Int64
	seq := 0
	submit := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Submit(request(seq, &served)); err != nil {
				t.Fatal(err)
			}
			seq++
		}
	}
	for w := 0; w < 6; w++ {
		if w%3 != 2 { // two loaded waves, then an empty one
			submit(8)
		}
		s.RunWave()
	}
	before := s.Totals().Waves
	submit(64) // several waves' worth, left for Close to drain
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waves := s.Totals().Waves
	if waves < before+2 {
		t.Fatalf("Close drained in %d waves, want at least 2", waves-before)
	}
	if int64(len(seen)) != waves {
		t.Fatalf("controller observed %d waves, the server ran %d", len(seen), waves)
	}
	for i, w := range seen {
		if w != i {
			t.Fatalf("step %d observed wave %d", i, w)
		}
	}
}
