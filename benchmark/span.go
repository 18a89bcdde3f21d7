package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call the benchmark made into a layer: recorded from
// the benchmark's side of the boundary, never from inside the program.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"` // span id, -1 for a root
	Req    int64  `json:"req"`    // request / wave / pass identifier shared by one op's spans
	ID     int64  `json:"id"`
}

// spanRef names a span while it is open; the zero value is "not recording".
type spanRef struct {
	buf *spanBuf
	idx int
}

// id is the span's identifier for use as a child's parent (-1 when off).
func (r spanRef) id() int64 {
	if r.buf == nil {
		return -1
	}
	return r.buf.spans[r.idx].ID
}

// tracer keeps spans in memory in per-goroutine buffers (no lock on the
// recording path) and writes them out once, at the end of the run.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	bufs   []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span log. A nil *spanBuf records nothing, so
// untraced runs pay one nil check per call site.
type spanBuf struct {
	t     *tracer
	spans []span
}

// buffer returns a new log owned by the calling goroutine; nil on a nil
// tracer.
func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// enable switches recording on or off; traced and untraced segments alternate
// inside one run so the tracing overhead is a same-weather ratio.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (b *spanBuf) begin(layer, name string, parent int64, req int64) spanRef {
	if b == nil || !b.t.on.Load() {
		return spanRef{}
	}
	now := time.Since(b.t.epoch).Nanoseconds()
	b.spans = append(b.spans, span{Layer: layer, Name: name, Start: now, End: now, Parent: parent, Req: req, ID: b.t.nextID.Add(1) - 1})
	return spanRef{buf: b, idx: len(b.spans) - 1}
}

func (r spanRef) end() {
	if r.buf != nil {
		r.buf.spans[r.idx].End = time.Since(r.buf.t.epoch).Nanoseconds()
	}
}

// endAt closes the span at a time the caller read itself.
func (r spanRef) endAt(t time.Time) {
	if r.buf != nil {
		r.buf.spans[r.idx].End = t.Sub(r.buf.t.epoch).Nanoseconds()
	}
}

// recording reports whether the span is being kept.
func (r spanRef) recording() bool { return r.buf != nil }

// record adds a span whose interval was measured elsewhere (for instance the
// server-side latency a response reports about itself). It does not consult
// the on/off switch: the caller decided when the interval began.
func (b *spanBuf) record(layer, name string, start, end time.Time, parent int64, req int64) spanRef {
	if b == nil {
		return spanRef{}
	}
	b.spans = append(b.spans, span{Layer: layer, Name: name,
		Start: start.Sub(b.t.epoch).Nanoseconds(), End: end.Sub(b.t.epoch).Nanoseconds(),
		Parent: parent, Req: req, ID: b.t.nextID.Add(1) - 1})
	return spanRef{buf: b, idx: len(b.spans) - 1}
}

// tracing reports whether spans are being recorded right now.
func (t *tracer) tracing() bool { return t != nil && t.on.Load() }

// all returns every recorded span; call it only after the recording
// goroutines have finished.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once, and a
// child is clipped to its parent).
func selfTimes(spans []span) map[int64]int64 {
	byID := make(map[int64]span, len(spans))
	children := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for id, s := range byID {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[id] = (s.End - s.Start) - covered
	}
	return self
}

// selfByLayer sums self time per layer, in seconds.
func selfByLayer(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e9
	}
	return out
}

// writeSpans stores the spans as JSON; the file lives in the benchmark's build
// directory inside the checkout, which .gitignore names.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
