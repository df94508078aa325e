package core

import (
	"repro/internal/docstore"
	"repro/internal/faults"
	"repro/internal/retry"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// EnableChaos attaches a deterministic fault injector to every storage and
// streaming seam: the broker produce/poll surface, HDFS datanode I/O, the
// HBase WAL/flush path, and docstore inserts. The pipelines keep running
// through the shared retry policy — this is how experiment E18 stresses the
// stack without touching pipeline code.
func (inf *Infrastructure) EnableChaos(inj *faults.Injector) {
	inf.Injector = inj
	// Metering wraps the flaky bus, not the other way round, so injected
	// faults show up in the produce/poll error counters like real ones.
	inf.Bus = stream.NewMeteredBus(faults.NewFlakyBus(inf.Broker, inj), inf.busMetrics, nil)
	inf.Broker.SetFaultHook(inj.ClusterHook())
	inf.HDFS.SetFaultHook(inj.HDFSHook())
	inf.CrimeTab.SetFaultHook(inj.HBaseHook())
	inf.VideoTab.SetFaultHook(inj.HBaseHook())
	inf.storeFault = inj.StoreHook()
	inf.Events.Log(telemetry.LevelWarn, telemetry.CompChaos, "", "fault injection enabled on broker, replication, HDFS, HBase, and docstore seams")
}

// DisableChaos detaches the injector and restores direct seams.
func (inf *Infrastructure) DisableChaos() {
	inf.Injector = nil
	inf.Bus = stream.NewMeteredBus(inf.Broker, inf.busMetrics, nil)
	inf.Broker.SetFaultHook(nil)
	inf.HDFS.SetFaultHook(nil)
	inf.CrimeTab.SetFaultHook(nil)
	inf.VideoTab.SetFaultHook(nil)
	inf.storeFault = nil
	inf.Events.Log(telemetry.LevelInfo, telemetry.CompChaos, "", "fault injection disabled; direct seams restored")
}

// produceWithRetry pushes one record through the bus under the shared
// policy, returning this call's own retry accounting. Callers fold the
// CallStats into their pipeline stats instead of diffing the policy-wide
// counters, which would double-count when two ingests interleave. headers
// carry the producing trace's context across the broker hop (nil is fine).
func (inf *Infrastructure) produceWithRetry(topic, key string, body []byte, headers map[string]string) (retry.CallStats, error) {
	return inf.Retry.DoStats(func() error {
		_, _, err := inf.Bus.ProduceH(topic, key, body, headers)
		return err
	})
}

// pollWithRetry reads from the bus under the shared policy. The flaky bus
// decides faults before any offsets are committed, so retrying a failed poll
// never skips records.
func (inf *Infrastructure) pollWithRetry(group, topic string, max int) ([]stream.Record, retry.CallStats, error) {
	var recs []stream.Record
	cs, err := inf.Retry.DoStats(func() error {
		var e error
		recs, e = inf.Bus.Poll(group, topic, max)
		return e
	})
	return recs, cs, err
}

// redriven runs op under the shared policy and, while it keeps failing, up
// to RedriveRounds more policy runs: the same second chance dead-lettered
// produce batches get, so a fault burst or an open breaker window has to
// outlast every round to defeat the operation. Total attempts stay bounded
// by MaxAttempts × (RedriveRounds + 1). The returned CallStats accumulates
// across rounds.
func (inf *Infrastructure) redriven(op func() error) (retry.CallStats, error) {
	total, err := inf.Retry.DoStats(op)
	for round := 1; err != nil && round <= inf.RedriveRounds; round++ {
		var cs retry.CallStats
		cs, err = inf.Retry.DoStats(op)
		total.Attempts += cs.Attempts
		total.Retries += cs.Retries
		total.ShortCircuits += cs.ShortCircuits
		total.Slept += cs.Slept
	}
	return total, err
}

// insert writes one document, honoring the chaos injector's store hook.
func (inf *Infrastructure) insert(col *docstore.Collection, doc docstore.Document) error {
	if inf.storeFault != nil {
		if err := inf.storeFault(); err != nil {
			return err
		}
	}
	_, err := col.Insert(doc)
	return err
}

// quarantine parks an undeliverable record in the dead-letter collection so
// it can be inspected and replayed instead of being lost. It reports whether
// the record was captured; the dead-letter store itself is not subject to
// chaos (it is the thing that must not fail). traceID links the quarantined
// record — in both the stored document and the event log — back to the
// ingestion trace it fell out of.
func (inf *Infrastructure) quarantine(source, stage, key string, body []byte, cause error, traceID string) bool {
	doc := docstore.Document{
		"source": source,
		"stage":  stage,
		"key":    key,
		"body":   string(body),
		"cause":  cause.Error(),
	}
	if traceID != "" {
		doc["traceId"] = traceID
	}
	_, err := inf.DocDB.Collection("deadletter").Insert(doc)
	// The component carries the failing stage (deadletter/<stage>) so the
	// incident scorer can attribute the loss to the backend behind it.
	comp := telemetry.Component(telemetry.CompDeadLetter, stage)
	if err == nil {
		inf.Events.Log(telemetry.LevelWarn, comp, traceID,
			"%s/%s record %q quarantined: %v", source, stage, key, cause)
	} else {
		inf.Events.Log(telemetry.LevelError, comp, traceID,
			"%s/%s record %q dropped — quarantine failed: %v", source, stage, key, cause)
	}
	return err == nil
}

// DeadLetters returns the quarantined records for one source ("" = all).
func (inf *Infrastructure) DeadLetters(source string) ([]docstore.Document, error) {
	col := inf.DocDB.Collection("deadletter")
	if source == "" {
		return col.Find(docstore.Query{})
	}
	return col.Find(docstore.Query{Conditions: []docstore.Condition{
		docstore.Eq("source", source),
	}})
}
