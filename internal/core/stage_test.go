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
// early return on a marshal error: the failing stage's span, its region and
// the run's root all close, and no later stage opens.
func TestRecordStagesPairSpansAndRegions(t *testing.T) {
	at := geo.Point{Lat: 30.45, Lon: -91.18}
	for _, tc := range []struct {
		root    string
		stages  []string // span names; each stage's region is ingest/<name>
		failing string   // the stage a NaN location fails in
		errText string
		ingest  func(inf *Infrastructure, loc geo.Point) (PipelineStats, error)
	}{
		{"ingest-tweets", []string{"collect", "stream", "store"}, "collect", "marshal tweet",
			func(inf *Infrastructure, loc geo.Point) (PipelineStats, error) {
				epoch := inf.Config().Epoch
				return inf.IngestTweets([]citydata.Tweet{
					{ID: "t1", Author: "a", Text: "traffic on i-10", Time: epoch, Location: at},
					{ID: "t2", Author: "b", Text: "gunshots on plank rd", Time: epoch, Location: loc},
				})
			}},
		{"ingest-waze", []string{"stream", "store"}, "stream", "marshal waze",
			func(inf *Infrastructure, loc geo.Point) (PipelineStats, error) {
				epoch := inf.Config().Epoch
				return inf.IngestWaze([]citydata.WazeReport{
					{ID: "w1", Kind: citydata.WazeJam, Severity: 3, Location: at, Time: epoch},
					{ID: "w2", Kind: citydata.WazeAccident, Severity: 5, Location: loc, Time: epoch},
				})
			}},
		{"ingest-911", []string{"stream", "store"}, "stream", "marshal calls911",
			func(inf *Infrastructure, loc geo.Point) (PipelineStats, error) {
				epoch := inf.Config().Epoch
				return inf.Ingest911([]citydata.Call911{
					{ID: "c1", Category: "traffic", Location: at, Time: epoch, Priority: 2},
					{ID: "c2", Category: "assault", Location: loc, Time: epoch, Priority: 1},
				})
			}},
	} {
		t.Run(tc.root, func(t *testing.T) {
			inf := bootSmall(t)
			steppedTracer(inf)
			regions := []string{"ingest"}
			for _, st := range tc.stages {
				regions = append(regions, "ingest/"+st)
			}

			before := regionCalls(inf, regions)
			stats, err := tc.ingest(inf, at)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Stored != 2 {
				t.Fatalf("stored %d records, want 2: %+v", stats.Stored, stats)
			}
			want := make(map[string]uint64)
			for _, r := range regions {
				want[r] = 1
			}
			ids := inf.Tracer.IDs()
			checkStages(t, inf, before, want, ids[len(ids)-1], tc.stages)

			// NaN has no JSON encoding, so the failing stage errors on the
			// second record and the run returns early.
			before = regionCalls(inf, regions)
			failing := "ingest/" + tc.failing
			wall := inf.Profiler.Region(failing).WallSeconds()
			if _, err := tc.ingest(inf, geo.Point{Lat: math.NaN(), Lon: at.Lon}); err == nil || !strings.Contains(err.Error(), tc.errText) {
				t.Fatalf("err = %v, want a %q error", err, tc.errText)
			}
			if inf.Profiler.Region(failing).WallSeconds() <= wall {
				t.Errorf("%s region entry never closed on the error return", failing)
			}
			want, opened := map[string]uint64{"ingest": 1}, []string{tc.root}
			reached := true
			for _, st := range tc.stages {
				if reached {
					want["ingest/"+st] = 1
					opened = append(opened, st)
				} else {
					want["ingest/"+st] = 0
				}
				reached = reached && st != tc.failing
			}
			ids = inf.Tracer.IDs()
			checkStages(t, inf, before, want, ids[len(ids)-1], opened)
		})
	}
}
