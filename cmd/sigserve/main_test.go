package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/sig/serve"
)

// newFront builds a server and its HTTP front over the sobel backend. A
// started server runs its own waves; an unstarted one only runs the waves the
// test fires, so its queue fills.
func newFront(t *testing.T, cfg serve.Config, start bool) (*serve.Server, *front) {
	t.Helper()
	cfg.Workers = 1
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	h := newHandler(srv, harness.SobelServeBackend(0.05), 0)
	if start {
		srv.Start()
	}
	return srv, h
}

func get(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// TestWorkStatus walks /work's reply paths on a running server: what the
// query may say, what it may not, and a deadline that has passed by the time
// the request reaches admission.
func TestWorkStatus(t *testing.T) {
	_, h := newFront(t, serve.Config{}, true)
	for _, tc := range []struct {
		target string
		status int
		body   string // a substring of the reply
	}{
		{"/work", http.StatusOK, `"outcome": "accurate"`},
		{"/work?tier=gold", http.StatusOK, `"significance": 1,`},
		{"/work?tier=silver&deadline_ms=60000", http.StatusOK, `"significance": 0.7,`},
		{"/work?sig=0.25", http.StatusOK, `"significance": 0.25,`},
		{"/work?tier=platinum", http.StatusBadRequest, `unknown tier "platinum"`},
		{"/work?sig=1.5", http.StatusBadRequest, "sig must be a number in [0,1]"},
		{"/work?sig=high", http.StatusBadRequest, "sig must be a number in [0,1]"},
		{"/work?deadline_ms=0", http.StatusBadRequest, "deadline_ms must be a positive number"},
		{"/work?deadline_ms=soon", http.StatusBadRequest, "deadline_ms must be a positive number"},
		// One nanosecond from arrival: gone before Submit reads the clock.
		{"/work?tier=gold&deadline_ms=0.000001", http.StatusGatewayTimeout, "deadline expired before admission"},
		{"/healthz", http.StatusOK, "ok"},
		{"/readyz", http.StatusOK, "ready"},
	} {
		rec := get(h, tc.target)
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.body) {
			t.Errorf("GET %s: status %d, body %q; want %d and %q", tc.target, rec.Code, rec.Body.String(), tc.status, tc.body)
		}
	}
}

// TestReadyzTurnsOffAtShutdown: once run has begun shutting down, /readyz
// answers 503 so a balancer stops sending, while /healthz — liveness — still
// answers 200 for as long as the process does.
func TestReadyzTurnsOffAtShutdown(t *testing.T) {
	_, h := newFront(t, serve.Config{}, true)
	h.draining.Store(true)
	if rec := get(h, "/readyz"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "not admitting") {
		t.Errorf("GET /readyz while draining: status %d, body %q; want 503 not admitting", rec.Code, rec.Body.String())
	}
	if rec := get(h, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("GET /healthz while draining: status %d, want 200", rec.Code)
	}
}

// TestShutdownDrainsAccepted drives run with its own listener and context:
// requests queued for the next wave when the context is cancelled are all
// answered — 200, or 503 had admission already stopped, never a broken
// connection — every handler has returned by the time run does (so the process
// may exit), and the server's books balance.
func TestShutdownDrainsAccepted(t *testing.T) {
	const clients = 24
	// A long cadence: past the first idle arrival, requests wait for the tick.
	srv, h := newFront(t, serve.Config{WavePeriod: 50 * time.Millisecond, MinPeriod: 50 * time.Millisecond}, true)
	var inHandler atomic.Int32
	mux := h.ServeMux
	h.ServeMux = http.NewServeMux()
	h.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		inHandler.Add(1)
		defer inHandler.Add(-1)
		mux.ServeHTTP(w, r)
		time.Sleep(10 * time.Millisecond) // a reply still on its way out after the ticket resolved
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- run(ctx, ln, h, srv) }()

	var (
		wg       sync.WaitGroup
		statuses [clients]int
		errs     [clients]error
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A connection of its own: none of these may ride another's reply.
			c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
			resp, err := c.Get("http://" + ln.Addr().String() + "/work?tier=silver")
			if err != nil {
				errs[i] = err
				return
			}
			statuses[i] = resp.StatusCode
			_, errs[i] = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Totals().Submitted < clients; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", srv.Totals().Submitted, clients)
		}
		runtime.Gosched()
	}
	cancel()
	if err := <-ran; err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := inHandler.Load(); n != 0 {
		t.Errorf("run returned with %d requests still in their handlers", n)
	}
	if !h.draining.Load() {
		t.Error("run did not turn readiness off")
	}
	wg.Wait()
	for i, status := range statuses {
		if errs[i] != nil || status != http.StatusOK && status != http.StatusServiceUnavailable {
			t.Errorf("a request in flight at shutdown ended with status %d, error %v", status, errs[i])
		}
	}
	if tot := srv.Totals(); tot.Submitted != tot.Completed+tot.Rejected {
		t.Errorf("totals %+v: submitted != completed + rejected", tot)
	}
}

// TestWorkReplyBytes: the reply is encoded from a struct and must read as it
// did when it was encoded from a map — keys sorted, two-space indent.
func TestWorkReplyBytes(t *testing.T) {
	_, h := newFront(t, serve.Config{}, true)
	rec := get(h, "/work?tier=bronze")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var reply map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	var fromMap bytes.Buffer
	enc := json.NewEncoder(&fromMap)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reply); err != nil {
		t.Fatal(err)
	}
	if len(reply) != 5 || !bytes.Equal(rec.Body.Bytes(), fromMap.Bytes()) {
		t.Errorf("reply\n%s\nencoded from a map reads\n%s", rec.Body.Bytes(), fromMap.Bytes())
	}
}

// TestWorkQueueFull: a request the admission queue has no slot for is refused
// 503 with the server's drain estimate in Retry-After, and costs the queued
// one nothing.
func TestWorkQueueFull(t *testing.T) {
	srv, h := newFront(t, serve.Config{QueueLimit: 1}, false)
	first := make(chan *httptest.ResponseRecorder)
	go func() { first <- get(h, "/work?tier=silver") }()
	for srv.Depth() == 0 {
		runtime.Gosched()
	}
	rec := get(h, "/work?tier=silver")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "admission queue full") {
		t.Errorf("second request: status %d, body %q; want 503 queue full", rec.Code, rec.Body.String())
	}
	if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want whole seconds >= 1", rec.Header().Get("Retry-After"))
	}
	srv.RunWave()
	if rec := <-first; rec.Code != http.StatusOK {
		t.Errorf("queued request: status %d, body %q; want 200", rec.Code, rec.Body.String())
	}
	if tot := srv.Totals(); tot.Submitted != 2 || tot.Rejected != 1 || tot.Completed != 1 {
		t.Errorf("totals %+v, want 2 submitted, 1 rejected, 1 completed", tot)
	}
}

// TestWorkAfterClose: a closed server refuses 503, with no Retry-After —
// there is nothing to wait for.
func TestWorkAfterClose(t *testing.T) {
	srv, h := newFront(t, serve.Config{}, true)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	rec := get(h, "/work?tier=gold")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "shutting down") {
		t.Errorf("status %d, body %q; want 503 shutting down", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Errorf("Retry-After %q on a closed server, want none", ra)
	}
}

// TestWorkClientGone: a client that disconnects while its request is queued
// is answered 408 and its ticket released on the spot — before Done, which is
// the caller's right. The request stays the server's: the next wave serves it
// like any other and only then is the ticket recycled.
func TestWorkClientGone(t *testing.T) {
	srv, h := newFront(t, serve.Config{}, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // no wave runs until the test fires one: only the context can end the wait
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/work?tier=silver", nil).WithContext(ctx))
	if rec.Code != http.StatusRequestTimeout || !strings.Contains(rec.Body.String(), "client gave up") {
		t.Fatalf("status %d, body %q; want 408 client gave up", rec.Code, rec.Body.String())
	}
	if depth := srv.Depth(); depth != 1 {
		t.Fatalf("depth %d after the client left, want its request still queued", depth)
	}
	if rep := srv.RunWave(); rep.Admitted != 1 || rep.Accurate != 1 {
		t.Errorf("wave after the disconnect: %d admitted, %d accurate; want the abandoned request served", rep.Admitted, rep.Accurate)
	}
	if tot := srv.Totals(); tot.Submitted != 1 || tot.Completed != 1 || tot.Rejected != 0 {
		t.Errorf("totals %+v, want 1 submitted and completed", tot)
	}
	// A request after it draws from the ticket pool the abandoned one went
	// back to; it must resolve as its own.
	reply := make(chan *httptest.ResponseRecorder)
	go func() { reply <- get(h, "/work?tier=gold") }()
	for srv.Depth() == 0 {
		runtime.Gosched()
	}
	srv.RunWave()
	if rec := <-reply; rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"significance": 1,`) {
		t.Errorf("request after the disconnect: status %d, body %q; want 200 at significance 1", rec.Code, rec.Body.String())
	}
}

// TestMetricsEndpoint: /metrics answers in the Prometheus text format and,
// with the priority lane on and traffic through both lanes, carries every
// series an operator's dashboard keys on — the per-lane depth gauges, the
// per-lane wave-latency histogram, the budget, both periods and the pacer's
// two counters — each exactly once per label set.
func TestMetricsEndpoint(t *testing.T) {
	_, h := newFront(t, serve.Config{PriorityAt: 0.9}, true)
	for _, target := range []string{"/work?tier=bronze", "/work?tier=bronze", "/work?tier=bronze", "/work?tier=gold"} {
		if rec := get(h, target); rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %q", target, rec.Code, rec.Body.String())
		}
	}
	rec := get(h, "/metrics")
	if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET /metrics: status %d, content type %q", rec.Code, ct)
	}
	lines := strings.Split(rec.Body.String(), "\n")
	for _, series := range []string{
		`sigserve_queue_depth{lane="priority"}`,
		`sigserve_queue_depth{lane="bulk"}`,
		`sigserve_wave_latency_waves_bucket{lane="bulk",le="+Inf"}`,
		`sigserve_wave_latency_waves_bucket{lane="priority",le="+Inf"}`,
		`sigserve_wave_budget`,
		`sigserve_wave_period_seconds`,
		`sigserve_pace_period_seconds`,
		`sigserve_wave_overruns_total`,
		`sigserve_early_waves_total`,
	} {
		n := 0
		for _, line := range lines {
			if strings.HasPrefix(line, series+" ") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("series %s appears %d times in /metrics, want once:\n%s", series, n, rec.Body.String())
		}
	}
}
