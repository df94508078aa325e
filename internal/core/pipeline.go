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
			Headers: run.ctx.Inject(map[string]string{"author": tw.Author, "id": tw.ID}),
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

	err := inf.drainToDocs(run, "tweets", &stats, func(v []byte, doc docstore.Document) (string, error) {
		var tw citydata.Tweet
		if err := json.Unmarshal(v, &tw); err != nil {
			return "", err
		}
		doc["id"] = tw.ID
		doc["author"] = tw.Author
		doc["text"] = tw.Text
		doc["unixTime"] = float64(tw.Time.Unix())
		doc["loc"] = tw.Location
		return tw.ID, nil
	})
	return stats, err
}

// drainToDocs is the storage tier of the Fig. 4 record paths: it drains
// topic for the storage group into the docstore collection of the same
// name, and commits each batch only once every record in it is stored or
// quarantined, so a consumer crash redelivers the batch instead of losing
// it. fill decodes one record value into doc and returns the record's id;
// records it cannot decode are dead-lettered at stage "decode" under the
// record key, and documents that cannot be stored at stage "store" under
// the id. doc is one map per drain, cleared before each record: Insert
// stores a copy, and a fresh map per record would cost heap allocations.
// The store span continues the trace context propagated on the first
// polled record, joining the producer's causal tree across the broker hop.
func (inf *Infrastructure) drainToDocs(run ingestRun, topic string, stats *PipelineStats, fill func(value []byte, doc docstore.Document) (string, error)) error {
	var spStore *telemetry.Span
	defer func() {
		if spStore != nil {
			spStore.End()
		}
	}()
	ps := inf.profStore.Start()
	defer ps.End()
	col := inf.DocDB.Collection(topic)
	doc := make(docstore.Document, 8)
	for {
		recs, cs, err := inf.pollWithRetry(storageGroup, topic, 256)
		stats.Retries += cs.Retries
		if err != nil {
			return fmt.Errorf("poll %s: %w", topic, err)
		}
		if len(recs) == 0 {
			return nil
		}
		if spStore == nil {
			spStore = inf.remoteTierSpan(recs, run.root, "store", "server")
		}
		stats.Streamed += len(recs)
		for _, r := range recs {
			clear(doc)
			id, err := fill(r.Value, doc)
			if err != nil {
				inf.deadLetter(stats, topic, "decode", r.Key, r.Value, err, recordTraceID(r, run.ctx.TraceID))
				continue
			}
			cs, err := inf.redriven(func() error { return inf.insert(col, doc) })
			stats.Retries += cs.Retries
			if err != nil {
				inf.deadLetter(stats, topic, "store", id, r.Value, err, recordTraceID(r, run.ctx.TraceID))
				continue
			}
			stats.Stored++
		}
		if err := inf.Bus.CommitPolled(storageGroup, topic); err != nil {
			return fmt.Errorf("commit %s: %w", topic, err)
		}
	}
}

// produceEach is the stream stage of the record paths that produce
// straight to the broker: it marshals each item and produces it on topic
// under the shared policy, keyed by keys(item), with the run's trace
// context on the headers. A record that exhausts its retries is
// dead-lettered under its id and the stage moves on; a marshal failure
// ends the stage.
func produceEach[T any](inf *Infrastructure, run ingestRun, topic string, items []T, stats *PipelineStats, keys func(T) (key, id string)) error {
	produce := startStage(run.root, "stream", "fog", inf.profStream)
	defer produce.End()
	hdrs := run.ctx.Inject(nil)
	for _, it := range items {
		body, err := json.Marshal(it)
		if err != nil {
			return fmt.Errorf("marshal %s: %w", topic, err)
		}
		key, id := keys(it)
		cs, err := inf.produceWithRetry(topic, key, body, hdrs)
		stats.Retries += cs.Retries
		if err != nil {
			inf.deadLetter(stats, topic, "produce", id, body, err, run.ctx.TraceID)
		}
	}
	return nil
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

	err := produceEach(inf, run, "waze", reports, &stats, func(r citydata.WazeReport) (string, string) {
		return string(r.Kind), r.ID
	})
	if err != nil {
		return stats, err
	}
	err = inf.drainToDocs(run, "waze", &stats, func(v []byte, doc docstore.Document) (string, error) {
		var r citydata.WazeReport
		if err := json.Unmarshal(v, &r); err != nil {
			return "", err
		}
		doc["id"] = r.ID
		doc["kind"] = string(r.Kind)
		doc["severity"] = r.Severity
		doc["speedKmh"] = r.SpeedKmh
		doc["unixTime"] = float64(r.Time.Unix())
		doc["loc"] = r.Location
		doc["user"] = r.UserReport
		return r.ID, nil
	})
	return stats, err
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
		cs, err := inf.redriven(func() error { return inf.CrimeTab.Put(row, family, qualifier, value) })
		stats.Retries += cs.Retries
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

	err := produceEach(inf, run, "calls911", calls, &stats, func(c citydata.Call911) (string, string) {
		return c.Category, c.ID
	})
	if err != nil {
		return stats, err
	}
	err = inf.drainToDocs(run, "calls911", &stats, func(v []byte, doc docstore.Document) (string, error) {
		var c citydata.Call911
		if err := json.Unmarshal(v, &c); err != nil {
			return "", err
		}
		doc["id"] = c.ID
		doc["category"] = c.Category
		doc["priority"] = c.Priority
		doc["unixTime"] = float64(c.Time.Unix())
		doc["loc"] = c.Location
		return c.ID, nil
	})
	return stats, err
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
