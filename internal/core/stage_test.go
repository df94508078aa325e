package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/citydata"
	"repro/internal/geo"
	"repro/internal/telemetry"
)

// steppedTracer swaps in a tracer whose clock advances one millisecond per
// reading, so a span still open when the trace is exported measures longer
// on every export while a closed span keeps its duration.
func steppedTracer(inf *Infrastructure) {
	var ticks int64
	inf.Tracer = telemetry.NewTracer(func() time.Time {
		ticks++
		return time.Unix(0, ticks*int64(time.Millisecond))
	}, 128)
}

// regionCalls snapshots the entry count of each named profile region.
func regionCalls(inf *Infrastructure, names []string) map[string]uint64 {
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		out[n] = inf.Profiler.Region(n).Calls()
	}
	return out
}

// checkStages asserts the regions advanced by exactly want[name] entries and
// that the trace holds a span named after each stage, with every span closed.
func checkStages(t *testing.T, inf *Infrastructure, before map[string]uint64, want map[string]uint64, traceID string, stages []string) {
	t.Helper()
	for name, n := range want {
		if got := inf.Profiler.Region(name).Calls() - before[name]; got != n {
			t.Errorf("region %s entered %d times, want %d", name, got, n)
		}
	}
	first, err := inf.Tracer.Trace(traceID)
	if err != nil {
		t.Fatal(err)
	}
	second, err := inf.Tracer.Trace(traceID)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for i, s := range first.Spans {
		names[s.Name] = true
		if s.DurationMs != second.Spans[i].DurationMs {
			t.Errorf("trace %s: span %q left open", traceID, s.Name)
		}
	}
	for _, st := range stages {
		if !names[st] {
			t.Errorf("trace %s missing stage span %q: %+v", traceID, st, first.Spans)
		}
	}
}

// Every ingest step is one stage: its trace span and its profile region open
// together and close together, so one offloaded frame enters each
// frame-path region exactly once and leaves a closed span per stage.
func TestFrameStagesPairSpansAndRegions(t *testing.T) {
	inf := bootSmall(t)
	steppedTracer(inf)
	regions := []string{"ingest", "ingest/collect", "ingest/gate", "ingest/stream", "ingest/inference"}
	before := regionCalls(inf, regions)
	f := FrameEvent{CameraID: "cam-1", Seq: 1, Class: "truck", Confidence: 0.2}
	stats, err := inf.IngestFrames([]FrameEvent{f}, "")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Offloaded != 1 || len(stats.TraceIDs) != 1 {
		t.Fatalf("frame not offloaded under one trace: %+v", stats)
	}
	want := make(map[string]uint64)
	for _, r := range regions {
		want[r] = 1
	}
	checkStages(t, inf, before, want, stats.TraceIDs[0],
		[]string{"capture", "early-exit-gate", "offload-produce", "inference", "archive"})
}

// The record paths pair spans and regions the same way, including the
// early return on a collect-stage error: the collect span, its region and
// the run's root all close, and no later stage opens.
func TestTweetStagesPairSpansAndRegions(t *testing.T) {
	inf := bootSmall(t)
	steppedTracer(inf)
	regions := []string{"ingest", "ingest/collect", "ingest/stream", "ingest/store"}
	epoch := inf.Config().Epoch
	tweets := []citydata.Tweet{
		{ID: "t1", Author: "a", Text: "traffic on i-10", Time: epoch, Location: geo.Point{Lat: 30.45, Lon: -91.18}},
		{ID: "t2", Author: "b", Text: "gunshots on plank rd", Time: epoch, Location: geo.Point{Lat: 30.47, Lon: -91.15}},
	}

	before := regionCalls(inf, regions)
	stats, err := inf.IngestTweets(tweets)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stored != len(tweets) {
		t.Fatalf("stats = %+v", stats)
	}
	ids := inf.Tracer.IDs()
	checkStages(t, inf, before,
		map[string]uint64{"ingest": 1, "ingest/collect": 1, "ingest/stream": 1, "ingest/store": 1},
		ids[len(ids)-1], []string{"collect", "stream", "store"})

	// NaN has no JSON encoding, so the collect stage fails on the second
	// tweet and the run returns early.
	tweets[1].Location.Lat = math.NaN()
	before = regionCalls(inf, regions)
	collectWall := inf.Profiler.Region("ingest/collect").WallSeconds()
	if _, err := inf.IngestTweets(tweets); err == nil || !strings.Contains(err.Error(), "marshal tweet") {
		t.Fatalf("err = %v, want a marshal error", err)
	}
	if inf.Profiler.Region("ingest/collect").WallSeconds() <= collectWall {
		t.Error("collect region entry never closed on the error return")
	}
	ids = inf.Tracer.IDs()
	checkStages(t, inf, before,
		map[string]uint64{"ingest": 1, "ingest/collect": 1, "ingest/stream": 0, "ingest/store": 0},
		ids[len(ids)-1], []string{"ingest-tweets", "collect"})
}
