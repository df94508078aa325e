package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/citydata"
	"repro/internal/docstore"
	"repro/internal/flume"
	"repro/internal/geo"
	"repro/internal/retry"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// PipelineStats counts one ingestion run (Fig. 4 report).
type PipelineStats struct {
	Collected    int // events produced by collectors
	Streamed     int // records that crossed the broker
	Stored       int // documents/cells written to NoSQL stores
	Dropped      int // records lost outright — neither stored nor quarantined
	DeadLettered int // records parked in the dead-letter collection for replay
	Retries      int // delivery attempts beyond the first, across all seams
}

// storageGroup is the broker consumer group used by the storage tier.
const storageGroup = "storage-tier"

// recordTraceID resolves the trace id propagated on a record's headers,
// falling back to the active ingest's id for records produced before
// propagation existed (or by other producers).
func recordTraceID(r stream.Record, fallback string) string {
	if ctx, ok := telemetry.Extract(r.Headers); ok {
		return ctx.TraceID
	}
	return fallback
}

// IngestTweets runs the Fig. 4 collection path for tweets: a Flume agent
// pumps the collector output into the stream broker; the storage tier
// drains the topic into the document store with geo and author indexes.
//
// The path degrades instead of dying: the agent delivers through the shared
// retry policy into a per-event idempotent sink (a batch retry never
// re-produces its successful prefix), batches that exhaust their retries are
// parked in a dead-letter queue and redriven up to RedriveRounds times, and
// records that cannot be decoded or stored are quarantined to the
// dead-letter collection while the drain keeps going.
func (inf *Infrastructure) IngestTweets(tweets []citydata.Tweet) (PipelineStats, error) {
	stats := PipelineStats{Collected: len(tweets)}
	run := inf.startRun("ingest-tweets", nil)
	defer run.end(&stats)
	rootCtx := run.ctx

	collect := startStage(run.root, "collect", "edge", inf.profCollect)
	events := make([]flume.Event, len(tweets))
	for i, tw := range tweets {
		body, err := json.Marshal(tw)
		if err != nil {
			collect.End()
			return PipelineStats{}, fmt.Errorf("marshal tweet: %w", err)
		}
		// The root's trace context rides the flume event headers, which the
		// sink forwards onto the broker record — so the storage tier on the
		// far side of the hop can continue this trace.
		events[i] = flume.Event{
			Headers: rootCtx.Inject(map[string]string{"author": tw.Author, "id": tw.ID}),
			Body:    body,
		}
	}
	collect.End()

	produce := startStage(run.root, "stream", "fog", inf.profStream)
	sink := flume.NewDedupSink(
		func(e flume.Event) string { return e.Headers["id"] },
		func(e flume.Event) error {
			_, _, err := inf.Bus.ProduceH("tweets", e.Headers["author"], e.Body, e.Headers)
			return err
		},
	)
	dlq := retry.NewDLQ[flume.Event]()
	agent := flume.NewAgent("twitter-collector", flume.NewSliceSource(events), sink,
		flume.Config{BatchSize: 64, Retry: inf.Retry, DeadLetter: dlq, Telemetry: inf.flumeTel})
	for !agent.Drained() {
		// A pump error means a batch exhausted its retries; those events are
		// in the DLQ, and the agent has already moved past them.
		_, _ = agent.Pump(16)
	}
	// Per-agent and per-call counters, not policy-wide diffs: the shared
	// policy serves every concurrent ingest, so a Stats() delta would
	// absorb other pipelines' retries.
	stats.Retries += agent.Metrics().Retries
	stats.Retries += inf.redrive(dlq, sink, &stats, "tweets")
	produce.End()

	// Storage tier: drain broker into docstore. The store span continues the
	// trace context propagated on the first polled record, joining the
	// producer's causal tree across the broker hop.
	var spStore *telemetry.Span
	defer func() {
		if spStore != nil {
			spStore.End()
		}
	}()
	ps := inf.profStore.Start()
	defer ps.End()
	col := inf.DocDB.Collection("tweets")
	for {
		recs, cs, err := inf.pollWithRetry(storageGroup, "tweets", 256)
		stats.Retries += cs.Retries
		if err != nil {
			return stats, fmt.Errorf("poll tweets: %w", err)
		}
		if len(recs) == 0 {
			break
		}
		if spStore == nil {
			spStore = inf.remoteTierSpan(recs, run.root, "store", "server")
		}
		stats.Streamed += len(recs)
		for _, r := range recs {
			var tw citydata.Tweet
			if err := json.Unmarshal(r.Value, &tw); err != nil {
				inf.deadLetter(&stats, "tweets", "decode", r.Key, r.Value, err, recordTraceID(r, rootCtx.TraceID))
				continue
			}
			doc := docstore.Document{
				"id":       tw.ID,
				"author":   tw.Author,
				"text":     tw.Text,
				"unixTime": float64(tw.Time.Unix()),
				"loc":      tw.Location,
			}
			cs, err := inf.storeWithRedrive(col, doc)
			stats.Retries += cs.Retries
			if err != nil {
				inf.deadLetter(&stats, "tweets", "store", tw.ID, r.Value, err, recordTraceID(r, rootCtx.TraceID))
				continue
			}
			stats.Stored++
		}
		// The batch is fully handled (stored or quarantined), so advance the
		// group's committed offsets; a consumer crash before this line would
		// redeliver the batch instead of losing it.
		if err := inf.Bus.CommitPolled(storageGroup, "tweets"); err != nil {
			return stats, fmt.Errorf("commit tweets: %w", err)
		}
	}
	return stats, nil
}

// redrive replays dead-lettered flume events through the idempotent sink.
// Events still failing after RedriveRounds are quarantined; events the sink
// already delivered are skipped by the dedup layer, so a redrive never
// duplicates. It returns the retries it spent, for per-run accounting.
func (inf *Infrastructure) redrive(dlq *retry.DLQ[flume.Event], sink *flume.DedupSink, stats *PipelineStats, source string) (retries int) {
	for round := 0; round < inf.RedriveRounds && dlq.Len() > 0; round++ {
		for _, l := range dlq.Drain() {
			attempts := 0
			cs, err := inf.Retry.DoStats(func() error {
				attempts++
				return sink.Deliver([]flume.Event{l.Item})
			})
			retries += cs.Retries
			if err != nil {
				dlq.Add(l.Item, err, l.Attempts+attempts)
			}
		}
	}
	for _, l := range dlq.Drain() {
		tid := ""
		if ctx, ok := telemetry.Extract(l.Item.Headers); ok {
			tid = ctx.TraceID
		}
		inf.deadLetter(stats, source, "produce", l.Item.Headers["id"], l.Item.Body, errors.New(l.Cause), tid)
	}
	return retries
}

// deadLetter quarantines one failed record and keeps the books: captured
// records count as DeadLettered, records the quarantine itself cannot hold
// count as Dropped. traceID ties the quarantine back to the ingest run (or
// the propagated producer trace) it fell out of.
func (inf *Infrastructure) deadLetter(stats *PipelineStats, source, stage, key string, body []byte, cause error, traceID string) {
	if inf.quarantine(source, stage, key, body, cause, traceID) {
		stats.DeadLettered++
	} else {
		stats.Dropped++
	}
}

// IngestWaze streams crowd-sourced traffic reports into the document store,
// with the same quarantine-and-continue semantics as the tweet path.
func (inf *Infrastructure) IngestWaze(reports []citydata.WazeReport) (PipelineStats, error) {
	stats := PipelineStats{Collected: len(reports)}
	run := inf.startRun("ingest-waze", nil)
	defer run.end(&stats)
	rootCtx := run.ctx

	produce := startStage(run.root, "stream", "fog", inf.profStream)
	hdrs := rootCtx.Inject(nil)
	for _, r := range reports {
		body, err := json.Marshal(r)
		if err != nil {
			produce.End()
			return stats, fmt.Errorf("marshal waze: %w", err)
		}
		cs, err := inf.produceWithRetry("waze", string(r.Kind), body, hdrs)
		stats.Retries += cs.Retries
		if err != nil {
			inf.deadLetter(&stats, "waze", "produce", r.ID, body, err, rootCtx.TraceID)
		}
	}
	produce.End()

	var spStore *telemetry.Span
	defer func() {
		if spStore != nil {
			spStore.End()
		}
	}()
	ps := inf.profStore.Start()
	defer ps.End()
	col := inf.DocDB.Collection("waze")
	for {
		recs, cs, err := inf.pollWithRetry(storageGroup, "waze", 256)
		stats.Retries += cs.Retries
		if err != nil {
			return stats, fmt.Errorf("poll waze: %w", err)
		}
		if len(recs) == 0 {
			break
		}
		if spStore == nil {
			spStore = inf.remoteTierSpan(recs, run.root, "store", "server")
		}
		stats.Streamed += len(recs)
		for _, rec := range recs {
			var r citydata.WazeReport
			if err := json.Unmarshal(rec.Value, &r); err != nil {
				inf.deadLetter(&stats, "waze", "decode", rec.Key, rec.Value, err, recordTraceID(rec, rootCtx.TraceID))
				continue
			}
			doc := docstore.Document{
				"id":       r.ID,
				"kind":     string(r.Kind),
				"severity": r.Severity,
				"speedKmh": r.SpeedKmh,
				"unixTime": float64(r.Time.Unix()),
				"loc":      r.Location,
				"user":     r.UserReport,
			}
			cs, err := inf.storeWithRedrive(col, doc)
			stats.Retries += cs.Retries
			if err != nil {
				inf.deadLetter(&stats, "waze", "store", r.ID, rec.Value, err, recordTraceID(rec, rootCtx.TraceID))
				continue
			}
			stats.Stored++
		}
		if err := inf.Bus.CommitPolled(storageGroup, "waze"); err != nil {
			return stats, fmt.Errorf("commit waze: %w", err)
		}
	}
	return stats, nil
}

// crimeRowKey builds HBase row keys that cluster by district then time, so
// district scans are contiguous.
func crimeRowKey(inc citydata.Incident) string {
	return fmt.Sprintf("d%02d|%s|%s", inc.District, inc.Time.UTC().Format(time.RFC3339), inc.ReportNumber)
}

// IngestCrimes writes incidents to the HBase crimes table (random-access
// path) and archives the raw batch into HDFS (batch path) — both sides of
// the paper's HDFS/HBase contrast. Each cell write goes through the shared
// retry policy; an incident whose writes keep failing is quarantined whole
// and the batch continues.
func (inf *Infrastructure) IngestCrimes(incidents []citydata.Incident, archivePath string) (PipelineStats, error) {
	stats := PipelineStats{Collected: len(incidents)}
	run := inf.startRun("ingest-crimes", nil)
	defer run.end(&stats)
	rootCtx := run.ctx

	put := func(row, family, qualifier string, value []byte) error {
		op := func() error { return inf.CrimeTab.Put(row, family, qualifier, value) }
		cs, err := inf.Retry.DoStats(op)
		stats.Retries += cs.Retries
		for round := 1; err != nil && round <= inf.RedriveRounds; round++ {
			cs, err = inf.Retry.DoStats(op)
			stats.Retries += cs.Retries
		}
		return err
	}
	store := startStage(run.root, "store", "server", inf.profStore)
incidents:
	for _, inc := range incidents {
		row := crimeRowKey(inc)
		// A fixed column order, not a map: each Put takes the next cell
		// timestamp, so the order decides the row's timestamps, its store
		// files' bytes, and which columns land before a failed write
		// quarantines the incident.
		puts := [...]struct{ q, v string }{
			{"offense", string(inc.Offense)},
			{"code", inc.OffenseCode},
			{"address", inc.Address},
			{"district", strconv.Itoa(inc.District)},
			{"time", inc.Time.UTC().Format(time.RFC3339)},
			{"agency", inc.Agency},
			{"lat", strconv.FormatFloat(inc.Location.Lat, 'f', 6, 64)},
			{"lon", strconv.FormatFloat(inc.Location.Lon, 'f', 6, 64)},
		}
		for _, p := range puts {
			if err := put(row, "meta", p.q, []byte(p.v)); err != nil {
				raw, _ := json.Marshal(inc)
				inf.deadLetter(&stats, "crimes", "hbase", inc.ReportNumber, raw, err, rootCtx.TraceID)
				continue incidents
			}
			stats.Stored++
		}
		for i, p := range inc.Persons {
			v := p.Role + ":" + p.ID
			if err := put(row, "persons", strconv.Itoa(i), []byte(v)); err != nil {
				raw, _ := json.Marshal(inc)
				inf.deadLetter(&stats, "crimes", "hbase", inc.ReportNumber, raw, err, rootCtx.TraceID)
				continue incidents
			}
			stats.Stored++
		}
	}
	store.End()
	if archivePath != "" {
		archive := startStage(run.root, "archive", "cloud", inf.profArchive)
		defer archive.End()
		raw, err := json.Marshal(incidents)
		if err != nil {
			return stats, fmt.Errorf("marshal archive: %w", err)
		}
		cs, err := inf.Retry.DoStats(func() error { return inf.HDFS.Write(archivePath, raw) })
		stats.Retries += cs.Retries
		if err != nil {
			return stats, fmt.Errorf("archive crimes: %w", err)
		}
	}
	return stats, nil
}

// Ingest911 streams emergency calls through the broker into the document
// store — the same collection → stream → NoSQL path as tweets and waze,
// rather than a side door straight into storage.
func (inf *Infrastructure) Ingest911(calls []citydata.Call911) (PipelineStats, error) {
	stats := PipelineStats{Collected: len(calls)}
	run := inf.startRun("ingest-911", nil)
	defer run.end(&stats)
	rootCtx := run.ctx

	produce := startStage(run.root, "stream", "fog", inf.profStream)
	hdrs := rootCtx.Inject(nil)
	for _, c := range calls {
		body, err := json.Marshal(c)
		if err != nil {
			produce.End()
			return stats, fmt.Errorf("marshal 911: %w", err)
		}
		cs, err := inf.produceWithRetry("calls911", c.Category, body, hdrs)
		stats.Retries += cs.Retries
		if err != nil {
			inf.deadLetter(&stats, "calls911", "produce", c.ID, body, err, rootCtx.TraceID)
		}
	}
	produce.End()

	var spStore *telemetry.Span
	defer func() {
		if spStore != nil {
			spStore.End()
		}
	}()
	ps := inf.profStore.Start()
	defer ps.End()
	col := inf.DocDB.Collection("calls911")
	for {
		recs, cs, err := inf.pollWithRetry(storageGroup, "calls911", 256)
		stats.Retries += cs.Retries
		if err != nil {
			return stats, fmt.Errorf("poll 911: %w", err)
		}
		if len(recs) == 0 {
			break
		}
		if spStore == nil {
			spStore = inf.remoteTierSpan(recs, run.root, "store", "server")
		}
		stats.Streamed += len(recs)
		for _, rec := range recs {
			var c citydata.Call911
			if err := json.Unmarshal(rec.Value, &c); err != nil {
				inf.deadLetter(&stats, "calls911", "decode", rec.Key, rec.Value, err, recordTraceID(rec, rootCtx.TraceID))
				continue
			}
			doc := docstore.Document{
				"id":       c.ID,
				"category": c.Category,
				"priority": c.Priority,
				"unixTime": float64(c.Time.Unix()),
				"loc":      c.Location,
			}
			cs, err := inf.storeWithRedrive(col, doc)
			stats.Retries += cs.Retries
			if err != nil {
				inf.deadLetter(&stats, "calls911", "store", c.ID, rec.Value, err, recordTraceID(rec, rootCtx.TraceID))
				continue
			}
			stats.Stored++
		}
		if err := inf.Bus.CommitPolled(storageGroup, "calls911"); err != nil {
			return stats, fmt.Errorf("commit 911: %w", err)
		}
	}
	return stats, nil
}

// TweetsNear returns stored tweets within radiusKm of center posted in
// [from, to].
func (inf *Infrastructure) TweetsNear(center geo.Point, radiusKm float64, from, to time.Time) ([]docstore.Document, error) {
	return inf.DocDB.Collection("tweets").Find(docstore.Query{Conditions: []docstore.Condition{
		docstore.GeoWithin("loc", center, radiusKm),
		docstore.Range("unixTime", float64(from.Unix()), float64(to.Unix())),
	}})
}

// CrimesInDistrict scans the HBase crimes table for one district.
func (inf *Infrastructure) CrimesInDistrict(district int) ([]string, error) {
	rows, err := inf.CrimeTab.ScanPrefix(fmt.Sprintf("d%02d|", district))
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, r.Row)
	}
	return out, nil
}
