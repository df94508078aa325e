package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/citydata"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/web"
)

// workload is one named input mix. Each episode of a run repeats the same
// fixed-size work on a fresh infrastructure, so the history a tick sees
// (and with it every O(history) cost) is the same on both commits of a
// comparison, however fast they are.
type workload struct {
	name string
	// opKind names what one op is: the unit of ops_per_s and op_*_ms.
	opKind string
	newRun func() workloadRun
}

var workloads = []workload{
	{name: "fleet-soak", opKind: "frame", newRun: func() workloadRun { return &fleetSoak{} }},
	{name: "city-records", opKind: "record", newRun: func() workloadRun { return &cityRecords{} }},
	{name: "operator-reads", opKind: "query", newRun: func() workloadRun { return &operatorReads{} }},
}

// Sizes. The fleet is core.DefaultConfig's 220 cameras.
const (
	// fleetTicks is fleet-soak's episode: 220 frames per tick, so one
	// episode alone holds 22 000 single-frame calls, enough for a p999
	// with 22 samples beyond it.
	fleetTicks = 100
	// recordWindows is city-records' episode: batch windows of
	// 200 tweets, 50 Waze reports, 30 crimes and 30 911 calls, four
	// Ingest* calls each, so one episode holds the 200 calls its p95 needs.
	recordWindows                                                   = 50
	tweetsPerWindow, wazePerWindow, crimesPerWindow, callsPerWindow = 200, 50, 30, 30
	// operator-reads: a history of historyTicks fleet ticks and one record
	// window, then readRounds rounds, each writing one tenth of the fleet
	// and reading the dashboard plus readCameras cameras' annotations.
	historyTicks = 50
	readRounds   = 100
	readCameras  = 10
	cameraGroups = 10

	// offloadGate is the fog gate's boot threshold (core.Config's 0.5);
	// offloadOneIn of the frames are drawn below it.
	offloadGate  = 0.5
	offloadOneIn = 8
	// checkSamples is how many frames a fleet episode reads back.
	checkSamples = 64
)

var frameClasses = []string{"vehicle", "truck", "bus", "pedestrian", "cyclist"}

// districts is how many police districts the crime generator uses.
var districts = citydata.DefaultCrimeConfig(time.Time{}).Districts

// makeFrame draws one camera frame. About one in offloadOneIn frames falls
// below the gate and archives its feature map to HDFS.
func makeFrame(cam string, seq int, rng *rand.Rand) core.FrameEvent {
	conf := offloadGate + (1-offloadGate)*rng.Float64()
	if rng.Intn(offloadOneIn) == 0 {
		conf = 0.05 + 0.44*rng.Float64()
	}
	return core.FrameEvent{
		CameraID: cam, Seq: seq,
		Class:      frameClasses[rng.Intn(len(frameClasses))],
		Confidence: conf,
		RawBytes:   64 << 10, FeatureBytes: 8 << 10,
		Priority: 1 + seq%3,
	}
}

// fleetTick makes one frame per camera, with sequence number seq.
func fleetTick(cams []citydata.Camera, seq int, rng *rand.Rand) []core.FrameEvent {
	out := make([]core.FrameEvent, len(cams))
	for i, c := range cams {
		out[i] = makeFrame(c.ID, seq, rng)
	}
	return out
}

// frameRow is the VideoTab row core writes for a frame.
func frameRow(f core.FrameEvent) string { return fmt.Sprintf("%s|%06d", f.CameraID, f.Seq) }

// archivedPayload is the bytes the offloaded frames among ticks archive to
// HDFS: core archives each such frame's JSON record.
func archivedPayload(ticks [][]core.FrameEvent) int64 {
	var n int64
	for _, tick := range ticks {
		for _, f := range tick {
			if f.Confidence < offloadGate {
				b, _ := json.Marshal(f) // a FrameEvent always marshals
				n += int64(len(b))
			}
		}
	}
	return n
}

// checkFrame reads a frame's annotation back from HBase, and its feature
// map's presence from HDFS when it was offloaded. It returns 1 on any
// mismatch.
func (e *episode) checkFrame(f core.FrameEvent) int {
	row := frameRow(f)
	var class, conf []byte
	var err1, err2 error
	e.tr.do("hbase.get", func() { class, err1 = e.inf.VideoTab.Get(row, "det", "class") })
	e.tr.do("hbase.get", func() { conf, err2 = e.inf.VideoTab.Get(row, "det", "confidence") })
	if err1 != nil || err2 != nil || string(class) != f.Class ||
		string(conf) != strconv.FormatFloat(f.Confidence, 'f', 4, 64) {
		return 1
	}
	if f.Confidence < offloadGate && !e.inf.HDFS.Exists(fmt.Sprintf("%s/%s-%06d.feat", featureDir, f.CameraID, f.Seq)) {
		return 1
	}
	return 0
}

// fleetSoak: every camera sends one frame per tick, one IngestFrames call
// per frame, then one MonitorTick per tick.
type fleetSoak struct {
	ticks [][]core.FrameEvent
}

func (w *fleetSoak) setup(e *episode) error {
	rng := e.inputRNG()
	w.ticks = make([][]core.FrameEvent, fleetTicks)
	for t := range w.ticks {
		w.ticks[t] = fleetTick(e.inf.Cameras, t+1, rng)
	}
	return nil
}

func (w *fleetSoak) measure(e *episode) {
	for _, tick := range w.ticks {
		t0 := time.Now()
		for _, f := range tick {
			d, _ := e.ingestFrame(f)
			e.opMs = append(e.opMs, float64(d)/1e6)
			e.ops++
		}
		e.monitorTick()
		e.tickMs = append(e.tickMs, float64(time.Since(t0))/1e6)
	}
}

func (w *fleetSoak) check(e *episode) {
	e.hdfsPayload += archivedPayload(w.ticks)
	if e.stored != 2*e.frames+e.offloaded {
		e.failed++
	}
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < checkSamples; i++ {
		e.failed += e.checkFrame(w.ticks[rng.Intn(len(w.ticks))][rng.Intn(len(e.inf.Cameras))])
	}
}

// recordWindow is one Fig. 4 batch window of city records.
type recordWindow struct {
	tweets  []citydata.Tweet
	waze    []citydata.WazeReport
	crimes  []citydata.Incident
	calls   []citydata.Call911
	archive string
}

// makeWindow draws window w from the citydata generators. The generators
// number records from zero on every call, so ids get a window prefix to
// stay unique across windows.
func makeWindow(inf *core.Infrastructure, w int, rng *rand.Rand) (recordWindow, error) {
	start := inf.Config().Epoch.Add(time.Duration(w) * 24 * time.Hour)
	ccfg := citydata.DefaultCrimeConfig(start)
	ccfg.Count, ccfg.Span = crimesPerWindow, 24*time.Hour
	crimes, err := citydata.GenerateCrimes(ccfg, inf.Gang.Nodes(), rng)
	if err != nil {
		return recordWindow{}, err
	}
	tcfg := citydata.DefaultTweetConfig(start)
	tcfg.Count, tcfg.Span = tweetsPerWindow, 24*time.Hour
	tweets, err := citydata.GenerateTweets(tcfg, crimes, inf.Gang, rng)
	if err != nil {
		return recordWindow{}, err
	}
	waze, err := citydata.GenerateWaze(wazePerWindow, inf.Cameras, start, rng)
	if err != nil {
		return recordWindow{}, err
	}
	calls, err := citydata.Generate911(callsPerWindow, start, rng)
	if err != nil {
		return recordWindow{}, err
	}
	prefix := fmt.Sprintf("w%03d-", w)
	for i := range crimes {
		crimes[i].ReportNumber = prefix + crimes[i].ReportNumber
	}
	for i := range tweets {
		tweets[i].ID = prefix + tweets[i].ID
	}
	for i := range waze {
		waze[i].ID = prefix + waze[i].ID
	}
	for i := range calls {
		calls[i].ID = prefix + calls[i].ID
	}
	return recordWindow{
		tweets: tweets, waze: waze, crimes: crimes, calls: calls,
		archive: fmt.Sprintf("/warehouse/crimes/window-%03d.json", w),
	}, nil
}

// crimeCells is how many HBase cells IngestCrimes stores for incidents:
// eight meta columns plus one per person.
func crimeCells(incidents []citydata.Incident) int {
	n := 0
	for _, inc := range incidents {
		n += 8 + len(inc.Persons)
	}
	return n
}

// ingestWindow runs the four record pipelines on one window and returns
// each Ingest* call's duration.
func (e *episode) ingestWindow(w recordWindow) []time.Duration {
	inf := e.inf
	return []time.Duration{
		e.recordBatch("core.ingest_tweets", len(w.tweets), len(w.tweets),
			func() (core.PipelineStats, error) { return inf.IngestTweets(w.tweets) }),
		e.recordBatch("core.ingest_waze", len(w.waze), len(w.waze),
			func() (core.PipelineStats, error) { return inf.IngestWaze(w.waze) }),
		e.recordBatch("core.ingest_crimes", len(w.crimes), crimeCells(w.crimes),
			func() (core.PipelineStats, error) { return inf.IngestCrimes(w.crimes, w.archive) }),
		e.recordBatch("core.ingest_911", len(w.calls), len(w.calls),
			func() (core.PipelineStats, error) { return inf.Ingest911(w.calls) }),
	}
}

// checkRecords compares the stores with the windows ingested: document
// counts per collection, crime rows per district and the HDFS archives.
func (e *episode) checkRecords(windows []recordWindow) {
	inf := e.inf
	var tweets, waze, calls int
	perDistrict := make(map[int]int)
	for _, w := range windows {
		tweets += len(w.tweets)
		waze += len(w.waze)
		calls += len(w.calls)
		for _, inc := range w.crimes {
			perDistrict[inc.District]++
		}
		raw, _ := json.Marshal(w.crimes) // incidents always marshal
		e.hdfsPayload += int64(len(raw))
		if !inf.HDFS.Exists(w.archive) {
			e.failed++
		}
	}
	for col, want := range map[string]int{"tweets": tweets, "waze": waze, "calls911": calls} {
		if got := inf.DocDB.Collection(col).Count(); got != want {
			e.failed += absDiff(got, want)
		}
	}
	for d := 1; d <= districts; d++ {
		rows, err := inf.CrimesInDistrict(d)
		if err != nil || len(rows) != perDistrict[d] {
			e.failed++
		}
	}
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// cityRecords: each batch window runs IngestTweets, IngestWaze,
// IngestCrimes (with its HDFS raw archive) and Ingest911, then one
// MonitorTick.
type cityRecords struct {
	windows []recordWindow
}

func (w *cityRecords) setup(e *episode) error {
	rng := e.inputRNG()
	w.windows = make([]recordWindow, recordWindows)
	for i := range w.windows {
		win, err := makeWindow(e.inf, i, rng)
		if err != nil {
			return fmt.Errorf("window %d: %w", i, err)
		}
		w.windows[i] = win
	}
	return nil
}

func (w *cityRecords) measure(e *episode) {
	for _, win := range w.windows {
		t0 := time.Now()
		for _, d := range e.ingestWindow(win) {
			e.opMs = append(e.opMs, float64(d)/1e6)
		}
		e.ops += len(win.tweets) + len(win.waze) + len(win.crimes) + len(win.calls)
		e.monitorTick()
		e.tickMs = append(e.tickMs, float64(time.Since(t0))/1e6)
	}
}

func (w *cityRecords) check(e *episode) { e.checkRecords(w.windows) }

// Dashboard reads. The two query expressions are a rate() and a
// sum by (camera) over the per-camera family.
const (
	rateExpr   = "rate(cityinfra_pipeline_stored_total[15s])"
	sumByExpr  = "sum by (camera) (cityinfra_camera_frames_ingested_total)"
	nearRadius = 2.0
)

var nearCenter = geo.Point{Lat: 30.4515, Lon: -91.1871}

// webRoutes are the dashboard GETs of one operator round, by metric name.
var webRoutes = []struct {
	name string
	path func(district int, traceID string) string
}{
	{"metrics", func(int, string) string { return "/metrics" }},
	{"query_rate", func(int, string) string { return "/api/query?expr=" + url.QueryEscape(rateExpr) }},
	{"query_sum", func(int, string) string { return "/api/query?expr=" + url.QueryEscape(sumByExpr) }},
	{"cameras", func(int, string) string { return "/api/cameras?sort=burn&limit=16" }},
	{"crimes_district", func(d int, _ string) string { return fmt.Sprintf("/api/crimes/district/%d", d) }},
	{"tweets_near", func(int, string) string {
		return fmt.Sprintf("/api/tweets/near?lat=%g&lon=%g&radiusKm=%g", nearCenter.Lat, nearCenter.Lon, nearRadius)
	}},
	{"profile", func(int, string) string { return "/api/profile?limit=10" }},
	{"incidents", func(int, string) string { return "/api/incidents?limit=10" }},
	{"trace", func(_ int, id string) string { return "/api/trace/" + id }},
}

// operatorReads: reads beside a trickle of writes on a fleet history.
type operatorReads struct {
	history  [][]core.FrameEvent
	batch    recordWindow
	rounds   [][]core.FrameEvent
	srv      http.Handler
	sent     map[string]int
	newest   map[string]core.FrameEvent
	district map[int]int
}

func (w *operatorReads) setup(e *episode) error {
	inf := e.inf
	rng := e.inputRNG()
	cams := inf.Cameras
	for t := 1; t <= historyTicks; t++ {
		w.history = append(w.history, fleetTick(cams, t, rng))
	}
	batch, err := makeWindow(inf, 0, rng)
	if err != nil {
		return err
	}
	w.batch = batch
	// Round r writes the cameras whose index is r mod cameraGroups.
	for r := 0; r < readRounds; r++ {
		var fs []core.FrameEvent
		for i := r % cameraGroups; i < len(cams); i += cameraGroups {
			fs = append(fs, makeFrame(cams[i].ID, historyTicks+1+r/cameraGroups, rng))
		}
		w.rounds = append(w.rounds, fs)
	}

	w.sent = make(map[string]int)
	w.newest = make(map[string]core.FrameEvent)
	for _, tick := range w.history {
		want, off := 2*len(tick), 0
		for _, f := range tick {
			w.sent[f.CameraID]++
			w.newest[f.CameraID] = f
			if f.Confidence < offloadGate {
				off++
			}
		}
		st, err := inf.IngestFrames(tick, featureDir)
		e.attempted += len(tick)
		if err != nil || st.Stored != want+off || st.DeadLettered+st.Dropped+st.Shed != 0 {
			e.failed += len(tick)
		}
		inf.MonitorTick()
	}
	e.ingestWindow(w.batch)
	inf.MonitorTick()
	w.district = make(map[int]int)
	for _, inc := range w.batch.crimes {
		w.district[inc.District]++
	}
	w.srv = web.NewServer(inf)
	return nil
}

func (w *operatorReads) measure(e *episode) {
	inf := e.inf
	cams := inf.Cameras
	for r, frames := range w.rounds {
		t0 := time.Now()
		var traceID string
		for _, f := range frames {
			_, traceID = e.ingestFrame(f)
			w.sent[f.CameraID]++
			w.newest[f.CameraID] = f
		}
		e.monitorTick()

		d := 1 + r%districts
		for _, rt := range webRoutes {
			id := e.tr.begin("web." + rt.name)
			code, body, dur := get(w.srv, rt.path(d, traceID))
			e.tr.end(id)
			e.query(dur)
			if !dashboardOK(rt.name, code, body, w.district[d]) {
				e.failed++
			}
			e.traceDirect(rt.name)
		}

		for j := 0; j < readCameras; j++ {
			cam := cams[(r*readCameras+j*(len(cams)/readCameras))%len(cams)].ID
			id := e.tr.begin("hbase.scan_prefix")
			t := time.Now()
			rows, err := inf.VideoTab.ScanPrefix(cam + "|")
			e.query(time.Since(t))
			e.tr.end(id)
			if err != nil || len(rows) != w.sent[cam] {
				e.failed++
			}
			f := w.newest[cam]
			id = e.tr.begin("hbase.get")
			t = time.Now()
			class, err := inf.VideoTab.Get(frameRow(f), "det", "class")
			e.query(time.Since(t))
			e.tr.end(id)
			if err != nil || string(class) != f.Class {
				e.failed++
			}
		}
		e.tickMs = append(e.tickMs, float64(time.Since(t0))/1e6)
	}
}

// query records one read's latency.
func (e *episode) query(d time.Duration) {
	e.ops++
	e.attempted++
	e.opMs = append(e.opMs, float64(d)/1e6)
}

// traceDirect times, in a traced run only, the layer call behind a route
// directly: the registry render behind /metrics, the TSDB evaluation behind
// /api/query and the docstore geo query behind /api/tweets/near. All three
// are reads.
func (e *episode) traceDirect(route string) {
	if e.tr == nil {
		return
	}
	inf := e.inf
	switch route {
	case "metrics":
		e.tr.do("telemetry.metrics_render", func() { _ = inf.Telemetry.WritePrometheus(io.Discard) })
	case "query_rate", "query_sum":
		expr := rateExpr
		if route == "query_sum" {
			expr = sumByExpr
		}
		e.tr.do("tsdb.query", func() { _, _ = inf.TSDB.EvalAll(expr, inf.TSDB.Now()) })
	case "tweets_near":
		e.tr.do("docstore.near", func() {
			_, _ = inf.TweetsNear(nearCenter, nearRadius, time.Unix(0, 0), time.Unix(1<<40, 0))
		})
	}
}

// dashboardOK checks one dashboard response: HTTP 200 and a body that
// parses, and for the district route the expected row count.
func dashboardOK(route string, code int, body []byte, districtRows int) bool {
	if code != http.StatusOK {
		return false
	}
	if route == "metrics" {
		return bytes.Contains(body, []byte("cityinfra_pipeline_stored_total"))
	}
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return false
	}
	if route == "crimes_district" {
		n, ok := v["count"].(float64)
		return ok && int(n) == districtRows
	}
	return true
}

func (w *operatorReads) check(e *episode) {
	e.hdfsPayload += archivedPayload(w.history) + archivedPayload(w.rounds)
	e.checkRecords([]recordWindow{w.batch})
}
