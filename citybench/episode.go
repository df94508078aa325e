package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/web"
)

// workloadRun is one episode's inputs and the steps that drive them. A fresh
// value is made per episode and dropped before the heap is measured, so the
// retained heap is the infrastructure's, not the inputs'.
type workloadRun interface {
	// setup generates the inputs from e.seed and loads any history.
	setup(e *episode) error
	// measure is the timed phase.
	measure(e *episode)
	// check verifies outputs after the timed phase, feeding e.failed.
	check(e *episode)
}

// episode is one freshly booted infrastructure driven through a workload's
// set-up and measured phase. A run repeats episodes with the same seed, so
// every episode of a run sees identical inputs and must produce identical
// deterministic counts.
type episode struct {
	seed int64
	inf  *core.Infrastructure
	tr   *tracer    // nil when untraced
	bus  *tracedBus // nil when untraced

	setup  time.Duration
	wall   time.Duration
	ops    int       // frames, records or queries in the measured phase
	opMs   []float64 // one sample per frame call, record batch or query
	tickMs []float64 // one sample per fleet tick, batch window or operator round

	attempted, failed int
	frames            int // frames sent through ingestFrame
	stored, offloaded int
	hdfsPayload       int64  // bytes the inputs asked the pipelines to archive in HDFS
	heapRetained      uint64 // live heap after the run minus before boot
	allocBytes        uint64
	mallocs           uint64
	gcCycles          uint32
	gcPause           time.Duration

	exemplars, exemplarsResolved int

	counts map[string]int64   // deterministic, compared across episodes
	layer  map[string]float64 // per-layer metrics (traced episodes only)
}

// inputSeedOffset separates the input generator's random stream from the one
// core.New consumes, so inputs do not shift when boot changes how many draws
// it takes.
const inputSeedOffset = 7919

// inputRNG is the generator for a workload's inputs.
func (e *episode) inputRNG() *rand.Rand { return rand.New(rand.NewSource(e.seed + inputSeedOffset)) }

// state is what the benchmark reads from public stats before and after the
// measured phase.
type state struct {
	hbaseFlushes, hbaseCompactions, storeFiles, memstoreCells int64
	blockWrites, hdfsFiles, hdfsStored                        int64
	knobChanges, incidentsOpened, tracesRetained              int64
	prof                                                      map[string]float64
}

func readState(inf *core.Infrastructure) state {
	v, c := inf.VideoTab.Stats(), inf.CrimeTab.Stats()
	hs := inf.HDFS.Status()
	s := state{
		hbaseFlushes:     int64(v.Flushes + c.Flushes),
		hbaseCompactions: int64(v.Compactions + c.Compactions),
		storeFiles:       int64(v.StoreFiles + c.StoreFiles),
		memstoreCells:    int64(v.MemstoreCells + c.MemstoreCells),
		blockWrites:      inf.HDFS.Counters().BlockWrites,
		hdfsFiles:        int64(hs.Files),
		hdfsStored:       int64(hs.StoredBytes),
		knobChanges:      inf.Control.TotalActions(),
		incidentsOpened:  inf.Incidents.OpenedTotal(),
		tracesRetained:   int64(len(inf.Tracer.IDs())),
		prof:             make(map[string]float64),
	}
	for _, r := range inf.Profiler.Snapshot() {
		s.prof[r.Region] = r.SelfSeconds
	}
	return s
}

// runEpisode boots a fresh infrastructure and drives one episode of the
// workload newRun makes.
func runEpisode(newRun func() workloadRun, seed int64, traced bool) (*episode, error) {
	e := &episode{seed: seed}
	run := newRun()
	// Heap figures are taken relative to the live heap before boot, so the
	// benchmark's own bookkeeping from earlier episodes does not count.
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	start := time.Now()
	inf, err := core.New(core.DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	e.inf = inf
	if err := run.setup(e); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	e.setup = time.Since(start)
	if traced {
		e.tr = newTracer()
		e.bus = &tracedBus{next: inf.Bus, tr: e.tr}
		inf.Bus = e.bus
	}

	before := readState(inf)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	run.measure(e)
	e.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	e.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	e.mallocs = m1.Mallocs - m0.Mallocs
	e.gcCycles = m1.NumGC - m0.NumGC
	e.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	after := readState(inf)

	run.check(e)
	e.failed += e.inf.DocDB.Collection("deadletter").Count()
	if traced {
		e.followExemplars()
	}
	e.counts = e.deterministicCounts(before, after)
	if traced {
		bus := *e.bus // the bus counts of the measured phase
		e.probeLayers()
		e.layer = e.layerMetrics(before, after, readState(inf), bus)
	}

	// Live heap with the infrastructure still reachable (e.inf) and the
	// inputs gone (run is not used again). Then drop the infrastructure, so
	// finished episodes hold only their samples.
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	e.heapRetained = m2.HeapAlloc - base.HeapAlloc
	e.inf = nil
	return e, nil
}

// monitorTick runs core.MonitorTick. In a traced episode it runs the same
// steps one by one, in MonitorTick's order, so each is timed from outside;
// the traced run's deterministic counts must equal the untraced run's,
// which catches this copy drifting from core.MonitorTick.
func (e *episode) monitorTick() {
	inf := e.inf
	if e.tr == nil {
		inf.MonitorTick()
		return
	}
	root := e.tr.begin("core.monitor_tick")
	inf.Clock.Advance(inf.ScrapeInterval)
	e.tr.do("stream.broker_tick", inf.Broker.Tick)
	e.tr.do("profile.tick", inf.Profiler.Tick)
	if inf.Fleet != nil {
		e.tr.do("core.fleet_tick", inf.Fleet.Tick)
	}
	e.tr.do("tsdb.scrape", func() { inf.TSDB.Scrape() })
	e.tr.do("tsdb.alert_eval", inf.Alerts.Eval)
	e.tr.do("incident.tick", inf.Incidents.Tick)
	e.tr.do("control.tick", inf.Control.Tick)
	e.tr.end(root)
}

// probeSeq is the sequence number of probe frames, which no workload uses.
const probeSeq = 999999

// probeLayers runs, in a traced episode after its counts are taken, one
// fixed round of calls into the layers that not every workload exercises:
// a frame for every cameraGroups-th camera, the dashboard GETs with their
// direct layer calls, and a ScanPrefix and Get for readCameras of those
// cameras. Every per-layer timing then measures that layer's cost on the
// state the workload left behind, where it would otherwise read a 0 that
// measures nothing. The probe is outside the measured phase and its results
// are not checked.
func (e *episode) probeLayers() {
	inf := e.inf
	rng := rand.New(rand.NewSource(e.seed))
	var cams []string
	var traceID string
	for i := 0; i < len(inf.Cameras); i += cameraGroups {
		f := makeFrame(inf.Cameras[i].ID, probeSeq, rng)
		cams = append(cams, f.CameraID)
		id := e.tr.begin("core.ingest_frames")
		st, _ := inf.IngestFrames([]core.FrameEvent{f}, featureDir)
		e.tr.end(id)
		if len(st.TraceIDs) == 1 {
			traceID = st.TraceIDs[0]
		}
	}
	srv := web.NewServer(inf)
	for _, rt := range webRoutes {
		e.tr.do("web."+rt.name, func() { get(srv, rt.path(1, traceID)) })
		e.traceDirect(rt.name)
	}
	for _, cam := range cams[:readCameras] {
		e.tr.do("hbase.scan_prefix", func() { _, _ = inf.VideoTab.ScanPrefix(cam + "|") })
		row := frameRow(core.FrameEvent{CameraID: cam, Seq: probeSeq})
		e.tr.do("hbase.get", func() { _, _ = inf.VideoTab.Get(row, "det", "class") })
	}
}

// featureDir is where offloaded frames archive their feature maps.
const featureDir = "/archive/features"

// ingestFrame sends one frame through core.IngestFrames and checks its
// accounting: two annotation cells, plus the HDFS feature map when the
// frame falls below the 0.5 gate; nothing dead-lettered, dropped or shed.
// It returns the call's duration and trace id.
func (e *episode) ingestFrame(f core.FrameEvent) (time.Duration, string) {
	id := e.tr.begin("core.ingest_frames")
	t0 := time.Now()
	st, err := e.inf.IngestFrames([]core.FrameEvent{f}, featureDir)
	d := time.Since(t0)
	e.tr.end(id)

	e.attempted++
	e.frames++
	want := 2
	if f.Confidence < offloadGate {
		want = 3
	}
	if err != nil || st.Stored != want || st.Offloaded != want-2 ||
		st.DeadLettered+st.Dropped+st.Shed != 0 || len(st.TraceIDs) != 1 {
		e.failed++
	}
	e.stored += st.Stored
	e.offloaded += st.Offloaded
	traceID := ""
	if len(st.TraceIDs) == 1 {
		traceID = st.TraceIDs[0]
	}
	return d, traceID
}

// recordBatch runs one Ingest* call of n records, checks that it stored
// want cells or documents with nothing lost, and returns its duration.
func (e *episode) recordBatch(name string, n, want int, ingest func() (core.PipelineStats, error)) time.Duration {
	id := e.tr.begin(name)
	t0 := time.Now()
	st, err := ingest()
	d := time.Since(t0)
	e.tr.end(id)

	e.attempted += n
	if err != nil || st.Stored != want || st.DeadLettered+st.Dropped != 0 {
		e.failed += n
	}
	e.stored += st.Stored
	return d
}

// get serves one GET in-process and returns the status, body and duration.
func get(h http.Handler, path string) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	return rec.Code, rec.Body.Bytes(), d
}

var exemplarRe = regexp.MustCompile(`# \{trace_id="([^"]+)"\}`)

// followExemplars resolves every exemplar on /metrics through
// /api/trace/{id}. Whether an exemplar's trace is still retained depends on
// wall-clock latency, so the ratio is a per-layer metric, never a failure.
func (e *episode) followExemplars() {
	srv := web.NewServer(e.inf)
	code, body, _ := get(srv, "/metrics")
	if code != http.StatusOK {
		e.failed++
		return
	}
	seen := make(map[string]bool)
	for _, m := range exemplarRe.FindAllSubmatch(body, -1) {
		id := string(m[1])
		if seen[id] {
			continue
		}
		seen[id] = true
		e.exemplars++
		if c, _, _ := get(srv, "/api/trace/"+id); c == http.StatusOK {
			e.exemplarsResolved++
		}
	}
}

// deterministicCounts are the episode's counts that depend only on the
// seed. Wall-clock values are excluded, and so are HDFS block writes and
// stored bytes: core.IngestCrimes writes a row's columns in Go map order,
// which changes the HBase cell timestamps' gob-encoded sizes and which
// store file a row's columns land in, so store-file bytes (and, rarely,
// their block counts) vary between runs of one seed.
func (e *episode) deterministicCounts(before, after state) map[string]int64 {
	c := map[string]int64{
		"ops":                      int64(e.ops),
		"attempted":                int64(e.attempted),
		"failed":                   int64(e.failed),
		"stored":                   int64(e.stored),
		"offloaded":                int64(e.offloaded),
		"hbase.flushes":            after.hbaseFlushes - before.hbaseFlushes,
		"hbase.compactions":        after.hbaseCompactions - before.hbaseCompactions,
		"hbase.store_files_end":    after.storeFiles,
		"hbase.memstore_cells_end": after.memstoreCells,
		"hdfs.files_end":           after.hdfsFiles,
		"control.knob_changes":     after.knobChanges - before.knobChanges,
		"incident.opened":          after.incidentsOpened - before.incidentsOpened,
		"tsdb.series":              int64(len(e.inf.TSDB.Inventory())),
		"stream.log_records_end":   logRecords(e.inf),
	}
	for _, name := range e.inf.DocDB.Collections() {
		c["docstore."+name] = int64(e.inf.DocDB.Collection(name).Count())
	}
	return c
}

// logRecords is the retained broker log: the sum of partition high
// watermarks.
func logRecords(inf *core.Infrastructure) int64 {
	var n int64
	for _, p := range inf.Broker.State().Partitions {
		n += p.HighWatermark
	}
	return n
}

// profiledRegions are the program's own profiler regions the traced run
// reads back as a cross-check. They locate time inside a layer that has no
// outside seam; they are the program's counts, not the benchmark's.
var profiledRegions = []string{
	"ingest/gate", "broker/append/replicate", "broker/poll",
	"hbase/wal", "hbase/flush", "hdfs/write", "tsdb/scrape",
}

// layerMetrics derives the traced episode's per-layer metrics from its
// spans (measured phase and probe), the bus decorator's counts over the
// measured phase, and the public stats: before and after the measured
// phase, and after the probe for the program's own profiler regions.
func (e *episode) layerMetrics(before, after, probed state, bus tracedBus) map[string]float64 {
	spans := e.tr.spans
	dur := durationsByName(spans)
	p50 := func(name string) float64 { return median(dur[name]) }
	ops := float64(e.ops)
	per := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	m := map[string]float64{
		"stream.produce_us":     1e3 * p50("stream.produce"),
		"stream.poll_us":        1e3 * p50("stream.poll"),
		"stream.commit_us":      1e3 * p50("stream.commit"),
		"stream.calls_per_op":   per(float64(bus.calls())),
		"stream.errors":         float64(bus.errors),
		"stream.broker_tick_ms": p50("stream.broker_tick"),

		"hbase.scan_prefix_ms_p50": p50("hbase.scan_prefix"),
		"hbase.scan_prefix_ms_p99": quantile(dur["hbase.scan_prefix"], 99, 100),
		"hbase.get_us_p50":         1e3 * p50("hbase.get"),

		"core.tick_p50_ms":     median(e.tickMs),
		"core.monitor_tick_ms": p50("core.monitor_tick"),
		"core.fleet_tick_ms":   p50("core.fleet_tick"),
		"core.tick_growth":     tickGrowth(e.tickMs),

		"tsdb.scrape_ms":     p50("tsdb.scrape"),
		"tsdb.alert_eval_ms": p50("tsdb.alert_eval"),
		"profile.tick_ms":    p50("profile.tick"),
		"incident.tick_ms":   p50("incident.tick"),
		"control.tick_ms":    p50("control.tick"),

		"tsdb.query_us_p50":           1e3 * p50("tsdb.query"),
		"docstore.near_ms_p50":        p50("docstore.near"),
		"telemetry.metrics_render_ms": p50("telemetry.metrics_render"),
		"telemetry.traces_retained":   float64(after.tracesRetained),

		"runtime.gc_cycles":     float64(e.gcCycles),
		"runtime.gc_pause_ms":   float64(e.gcPause) / 1e6,
		"runtime.allocs_per_op": per(float64(e.mallocs)),
	}
	if bus.polls > 0 {
		m["stream.empty_poll_ratio"] = float64(bus.emptyPolls) / float64(bus.polls)
	}
	m["hdfs.block_writes"] = float64(after.blockWrites - before.blockWrites)
	m["hdfs.stored_bytes_end"] = float64(after.hdfsStored)
	if e.hdfsPayload > 0 {
		m["hdfs.space_amplification"] = float64(after.hdfsStored) / float64(e.hdfsPayload)
	}
	if e.frames > 0 {
		m["core.offload_ratio"] = float64(e.offloaded) / float64(e.frames)
	}
	if e.exemplars > 0 {
		m["telemetry.exemplar_resolve_ratio"] = float64(e.exemplarsResolved) / float64(e.exemplars)
	}
	// Frame self time: the IngestFrames call minus the bus calls under it.
	m["core.frame_self_us"] = 1e3 * median(selfByName(spans)["core.ingest_frames"])
	for _, r := range webRoutes {
		m["web."+r.name+"_ms_p50"] = p50("web." + r.name)
	}
	for _, r := range profiledRegions {
		m[profMetric(r)] = per(1e6 * (probed.prof[r] - before.prof[r]))
	}
	// The deterministic counts double as per-layer metrics (hbase.flushes,
	// tsdb.series, ...); layerValues keeps the names perLayer declares.
	for k, v := range e.counts {
		m[k] = float64(v)
	}
	return m
}

// profMetric names the per-op self time of a profiler region.
func profMetric(region string) string {
	return "prof." + strings.ReplaceAll(region, "/", "_") + "_us_per_op"
}

// tickGrowth is the median tick in the last tenth of the measured phase
// over the median in the first tenth: how much slower a tick gets as
// history accumulates.
func tickGrowth(ticks []float64) float64 {
	n := len(ticks) / 10
	if n == 0 {
		return 0
	}
	first := median(ticks[:n])
	if first == 0 {
		return 0
	}
	return median(ticks[len(ticks)-n:]) / first
}
