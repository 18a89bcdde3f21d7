package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/sig"
	"repro/sig/serve"
)

// http_closed: two closed-loop clients, one keep-alive connection each,
// against a sigserve subprocess with product defaults. The window is cut
// into quarter-second segments; in two of every six the same clients, paced
// to the rate sigserve sustained, talk to a plain net/http server that runs
// the same request body inline — the bare side of this workload's CPU ratios.

const (
	serveScale = 0.25 // sigserve's default -scale; the bare server must match it
	httpSeg    = 250 * time.Millisecond
	// bareEnv makes this binary act as the bare HTTP server child.
	bareEnv = "SIGBENCH_BAREHTTP"
)

var tierNames = [...]string{"gold", "silver", "bronze", "batch"}

// tierSignificance mirrors cmd/sigserve's tier table.
var tierSignificance = [...]float64{1.0, 0.7, 0.3, 0.0}

// tierSequence returns n tier indexes: seeded shuffles of balanced blocks of
// 16 (four of each tier), so any window holds the four tiers in equal parts
// whatever the seed and accurate_share does not carry sampling noise.
func tierSequence(seed int64, n int) []uint8 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint8, 0, n+16)
	for len(out) < n {
		block := [16]uint8{}
		for i := range block {
			block[i] = uint8(i % 4)
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block[:]...)
	}
	return out[:n]
}

// segKind says which server a segment (httpSeg) of the window talks to.
type segKind uint8

const (
	segStack   segKind = iota // sigserve
	segBareMix                // bare server, bodies as sigserve executes them at ratio 1
	segBareAcc                // bare server, every body accurate
)

// httpPattern is how many segments the kinds repeat over: four stack
// segments and one of each bare kind.
const httpPattern = 6

func httpSegKind(i int) segKind {
	switch i % httpPattern {
	case 2:
		return segBareMix
	case 5:
		return segBareAcc
	}
	return segStack
}

// httpSegTraced picks the stack segments that record spans in a traced run:
// two of the four in every pattern, so traced and untraced segments
// interleave.
func httpSegTraced(i int) bool {
	switch i % httpPattern {
	case 0, 4:
		return true
	}
	return false
}

type workReply struct {
	Outcome   string  `json:"outcome"`
	LatencyMS float64 `json:"latency_ms"`
}

type httpClosed struct {
	stack, bare *child
	tiers       []uint8
	clients     [2]*http.Client
	next        atomic.Int64 // index into tiers, shared by both clients
	meanRTT     atomic.Int64 // ns; running mean of stack RTT, the bare segments' pacing interval
}

func setupHTTPClosed(opt options) (instance, error) {
	bin, err := buildSigserve()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &httpClosed{tiers: tierSequence(opt.seed, 1<<16)}
	for i := range h.clients {
		h.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	gomaxprocs := "GOMAXPROCS=" + strconv.Itoa(procs)
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if h.stack, err = startChild(bin, []string{"-addr", addr}, []string{gomaxprocs}, addr); err != nil {
		return nil, err
	}
	if addr, err = freeAddr(); err != nil {
		h.close()
		return nil, err
	}
	if h.bare, err = startChild(self, nil, []string{gomaxprocs, bareEnv + "=" + addr}, addr); err != nil {
		h.close()
		return nil, err
	}

	// Warm-up by the clock: closed loop on sigserve, then the paced bare
	// server for the last fifth.
	start := time.Now()
	var sum, n int64
	warmUntil(start.Add(opt.warmup*4/5), func() {
		t0 := time.Now()
		if _, err = h.get(0, h.stack, h.nextTier()); err == nil {
			sum += time.Since(t0).Nanoseconds()
			n++
		}
	})
	if err != nil {
		h.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	h.meanRTT.Store(sum / max(n, 1))
	warmUntil(start.Add(opt.warmup), func() {
		_, err = h.get(0, h.bare, h.nextTier())
		time.Sleep(time.Duration(h.meanRTT.Load()))
	})
	if err != nil {
		h.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return h, nil
}

func (h *httpClosed) close() {
	if h.stack != nil {
		h.stack.stop()
	}
	if h.bare != nil {
		h.bare.stop()
	}
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
}

func (h *httpClosed) nextTier() uint8 {
	return h.tiers[int(h.next.Add(1)-1)%len(h.tiers)]
}

// get sends one /work request and returns the parsed reply; any transport
// error, non-200 status or unknown outcome is an error.
func (h *httpClosed) get(client int, to *child, tier uint8) (workReply, error) {
	var rep workReply
	resp, err := h.clients[client].Get("http://" + to.addr + "/work?tier=" + tierNames[tier])
	if err != nil {
		return rep, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, err
	}
	switch rep.Outcome {
	case "accurate", "degraded", "dropped":
		return rep, nil
	}
	return rep, fmt.Errorf("unknown outcome %q", rep.Outcome)
}

// stats reads sigserve's /stats; its counters are serve.Totals under
// lower-case keys, which encoding/json matches without regard to case.
func (h *httpClosed) stats() (serve.Totals, error) {
	var st serve.Totals
	resp, err := h.clients[0].Get("http://" + h.stack.addr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// httpSample is one request as its client saw it.
type httpSample struct {
	seg      int
	rtt      time.Duration
	serverMS float64
	accurate bool
}

func (h *httpClosed) measure(opt options) (*result, error) {
	res := newResult()
	// At least one full pattern, however short the window.
	segW := min(httpSeg, opt.window/httpPattern)
	nseg := int(opt.window / segW)
	before, err := h.stats()
	if err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}

	// Segment boundaries carry the CPU readings: boundary i is the start of
	// segment i. Client 0 takes the reading when it first sees the new
	// segment.
	stackCPU := make([]float64, nseg+1)
	bareCPU := make([]float64, nseg+1)
	readCPU := func(i int) error {
		var err error
		if stackCPU[i], err = h.stack.cpu(); err != nil {
			return err
		}
		bareCPU[i], err = h.bare.cpu()
		return err
	}
	if err := readCPU(0); err != nil {
		return nil, err
	}

	start := time.Now()
	var (
		wg       sync.WaitGroup
		samples  [2][]httpSample
		bareReqs [2][]int64 // per client, per segment: requests sent to the bare server
		failed   [2]int64
		firstErr [2]error
		cpuErr   error
	)
	for c := range h.clients {
		bareReqs[c] = make([]int64, nseg)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := opt.tr.buffer()
			seen := 0 // client 0: last boundary read
			var pacedNext time.Time
			for {
				now := time.Now()
				seg := int(now.Sub(start) / segW)
				if c == 0 {
					for seen < min(seg, nseg) {
						seen++
						if err := readCPU(seen); err != nil && cpuErr == nil {
							cpuErr = err
						}
					}
				}
				if seg >= nseg {
					return
				}
				kind := httpSegKind(seg)
				tier := h.nextTier()
				if kind != segStack {
					// Same arrival pattern as sigserve saw: one request per
					// client per mean stack round trip.
					if pacedNext.Before(now) {
						pacedNext = now
					}
					time.Sleep(time.Until(pacedNext))
					pacedNext = pacedNext.Add(time.Duration(h.meanRTT.Load()))
					if kind == segBareAcc {
						tier = 0
					}
					bareReqs[c][seg]++
					if _, err := h.get(c, h.bare, tier); err != nil {
						failed[c]++
						if firstErr[c] == nil {
							firstErr[c] = err
						}
					}
					continue
				}
				opt.tr.enable(httpSegTraced(seg))
				id := int64(c)<<40 | int64(len(samples[c]))
				sp := buf.begin("sigserve", "http.Client.Do", -1, id)
				t0 := time.Now()
				rep, err := h.get(c, h.stack, tier)
				t1 := time.Now()
				sp.end()
				if err != nil {
					failed[c]++
					if firstErr[c] == nil {
						firstErr[c] = err
					}
					continue
				}
				// The reply says how long the request spent behind the
				// front door; as a child span it leaves the front's share
				// as the Do span's self time.
				server := time.Duration(rep.LatencyMS * float64(time.Millisecond))
				if sp.recording() {
					buf.record("serve", "Submit+Ticket.Wait (reply latency_ms)", t1.Add(-server), t1, sp.id(), id)
				}
				rtt := t1.Sub(t0)
				samples[c] = append(samples[c], httpSample{seg, rtt, rep.LatencyMS, rep.Outcome == "accurate"})
				// Both clients nudge the pacing interval towards what they see.
				h.meanRTT.Store((h.meanRTT.Load()*63 + rtt.Nanoseconds()) / 64)
			}
		}(c)
	}
	wg.Wait()
	opt.tr.enable(false)
	if cpuErr != nil {
		return nil, cpuErr
	}
	// sigserve answers a request when its wave resolves the ticket and adds
	// the wave to its totals a moment later: wait for the last one to land.
	var after serve.Totals
	answered := int64(len(samples[0]) + len(samples[1]))
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if after, err = h.stats(); err != nil {
			return nil, fmt.Errorf("/stats: %w", err)
		}
		if after.Completed-before.Completed >= answered || time.Now().After(deadline) {
			break
		}
	}

	// Per-segment statistics over stack segments.
	rtts := make([][]float64, nseg)
	var all, front, tracedRTT, untracedRTT []float64
	var okReqs, accurate int64
	for c := range samples {
		for _, s := range samples[c] {
			sec := s.rtt.Seconds()
			rtts[s.seg] = append(rtts[s.seg], sec)
			all = append(all, sec)
			front = append(front, sec-s.serverMS/1e3)
			if httpSegTraced(s.seg) {
				tracedRTT = append(tracedRTT, sec)
			} else {
				untracedRTT = append(untracedRTT, sec)
			}
			okReqs++
			if s.accurate {
				accurate++
			}
		}
	}
	var segRate, segP50 []float64
	for i := 0; i < nseg; i++ {
		if httpSegKind(i) == segStack && len(rtts[i]) > 0 {
			segRate = append(segRate, float64(len(rtts[i]))/segW.Seconds())
			segP50 = append(segP50, median(rtts[i]))
		}
	}
	// One pair per pattern: sigserve's CPU per request over the pattern's
	// stack segments against each bare kind's CPU per request in its segment
	// of the same pattern, at most a second apart.
	var overhead, speedup bareRatio
	var stackCPUTotal, stackReqs, bareSent float64
	for p := 0; p+httpPattern <= nseg; p += httpPattern {
		var cpu, reqs [3]float64
		for i := p; i < p+httpPattern; i++ {
			kind := httpSegKind(i)
			if kind == segStack {
				cpu[kind] += stackCPU[i+1] - stackCPU[i]
				reqs[kind] += float64(len(rtts[i]))
			} else {
				cpu[kind] += bareCPU[i+1] - bareCPU[i]
				reqs[kind] += float64(bareReqs[0][i] + bareReqs[1][i])
			}
		}
		stackCPUTotal += cpu[segStack]
		stackReqs += reqs[segStack]
		bareSent += reqs[segBareMix] + reqs[segBareAcc]
		if reqs[segStack] == 0 || reqs[segBareMix] == 0 || reqs[segBareAcc] == 0 {
			continue
		}
		perStack := cpu[segStack] / reqs[segStack]
		overhead.add(perStack, cpu[segBareMix]/reqs[segBareMix])
		speedup.add(perStack, cpu[segBareAcc]/reqs[segBareAcc])
	}

	fails := failed[0] + failed[1]
	res.attempted = okReqs + fails + int64(bareSent)
	res.failed = fails
	for c := range firstErr {
		res.check(firstErr[c] == nil, "client %d: %d requests failed, first: %v", c, failed[c], firstErr[c])
	}

	// Server-side accounting over the window.
	d := totalsDelta(after, before)
	res.check(d.Submitted == d.Completed+d.Rejected, "/stats: submitted %d != completed %d + rejected %d", d.Submitted, d.Completed, d.Rejected)
	res.check(d.Completed == okReqs, "/stats: completed %d != client count %d", d.Completed, okReqs)
	res.check(d.Accurate == accurate, "/stats: accurate %d != client tally %d", d.Accurate, accurate)
	backend := harness.SobelServeBackend(serveScale)
	wantJ := sig.DefaultActiveWatts * (float64(d.Accurate)*backend.CostAccurate + float64(d.Degraded)*backend.CostDegraded) / 1e9
	res.check(math.Abs(d.Joules-wantJ) <= 1e-6*wantJ, "/stats: joules %.9g != 12 W x declared cost by outcome %.9g", d.Joules, wantJ)

	res.e2e["ops_per_s"] = quietDecile(segRate, false)
	res.e2e["latency_p50_s"] = quietDecile(segP50, true)
	res.e2e["accurate_share"] = float64(accurate) / float64(okReqs)
	res.e2e["joules_per_op"] = d.Joules / float64(d.Completed)
	res.e2e["overhead_ratio"] = overhead.value()
	res.e2e["speedup"] = 1 / speedup.value()

	res.layer["sigserve.rtt_p50_s"] = median(all)
	res.layer["sigserve.rtt_p99_s"] = quantile(all, 0.99)
	res.layer["sigserve.front_p50_s"] = median(front)
	res.layer["sigserve.cpu_s_per_op"] = stackCPUTotal / stackReqs
	res.layer["sigserve.barehttp_ratio"] = overhead.value()
	res.layer["sigserve.non200"] = float64(fails)
	if opt.tr != nil {
		res.layer["trace.overhead_share.http_closed"] = median(tracedRTT)/median(untracedRTT) - 1
	}
	return res, nil
}

// serveBare is the bare side of http_closed: a plain net/http server that
// builds the same sobel request sigserve would and runs its body inline —
// no serve.Server, no waves, no ticket — then answers in sigserve's reply
// shape. It runs as a child process so its CPU time is its own.
func serveBare(addr string) error {
	backend := harness.SobelServeBackend(serveScale)
	tierIndex := map[string]int{}
	for i, name := range tierNames {
		tierIndex[name] = i
	}
	var seq atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		tier, ok := tierIndex[r.URL.Query().Get("tier")]
		if !ok {
			http.Error(w, "unknown tier", http.StatusBadRequest)
			return
		}
		start := time.Now()
		req := backend.NewRequest(int(seq.Add(1) - 1))
		req.Significance = tierSignificance[tier]
		outcome := "accurate"
		if req.Significance == 0 { // the special 0.0 never runs the accurate body
			outcome = "degraded"
			req.Degraded()
		} else {
			req.Handler()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{ // a failed write is the client's to notice
			"outcome":       outcome,
			"significance":  req.Significance,
			"wave_latency":  0,
			"latency_ms":    float64(time.Since(start).Microseconds()) / 1000,
			"current_ratio": 1.0,
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return http.ListenAndServe(addr, mux)
}
