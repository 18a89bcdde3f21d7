package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Layer: "loadgen", Start: 0, End: 100, Parent: -1},
		{ID: 1, Layer: "serve", Start: 10, End: 40, Parent: 0},
		{ID: 2, Layer: "serve", Start: 30, End: 60, Parent: 0},  // overlaps span 1: [30,40) counts once
		{ID: 3, Layer: "serve", Start: 90, End: 130, Parent: 0}, // clipped to its parent at 100
		{ID: 4, Layer: "sig", Start: 15, End: 25, Parent: 1},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{0: 100 - 50 - 10, 1: 20, 2: 30, 3: 40, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byLayer := selfByLayer(spans)
	if byLayer["loadgen"] != 40e-9 || byLayer["serve"] != 90e-9 || byLayer["sig"] != 10e-9 {
		t.Errorf("self time by layer = %v", byLayer)
	}
}

func TestTracerSwitchAndNil(t *testing.T) {
	var off *tracer
	buf := off.buffer()
	sp := buf.begin("sig", "x", -1, 0)
	sp.end()
	if sp.recording() || sp.id() != -1 || off.tracing() || len(off.all()) != 0 {
		t.Error("a nil tracer recorded something")
	}

	tr := newTracer()
	buf = tr.buffer()
	if buf.begin("sig", "while off", -1, 0).recording() {
		t.Error("recorded a span while switched off")
	}
	tr.enable(true)
	root := buf.begin("loadgen", "root", -1, 7)
	child := buf.record("sig", "child", tr.epoch.Add(time.Millisecond), tr.epoch.Add(2*time.Millisecond), root.id(), 7)
	root.endAt(tr.epoch.Add(5 * time.Millisecond))
	tr.enable(false)
	spans := tr.all()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || child.id() != spans[1].ID {
		t.Fatalf("spans = %+v", spans)
	}
	if self := selfTimes(spans); self[spans[0].ID] != (5*time.Millisecond-time.Millisecond).Nanoseconds()-spans[0].Start {
		t.Errorf("root self time = %d", self[spans[0].ID])
	}
}
