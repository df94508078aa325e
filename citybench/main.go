// Command citybench is the repository's benchmark. It drives the booted
// cyberinfrastructure in-process from one goroutine (a closed loop: each
// call starts when the previous one returns) through one named workload,
// checks the outputs, and prints the metrics as one JSON object on the last
// line of standard output.
//
//	citybench --workload fleet-soak --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced episodes and prints the per-layer metrics,
// timed from outside each layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. "op" is a frame on
// fleet-soak, a record on city-records and a query on operator-reads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"heap_retained_mb", "MB"},
	{"alloc_bytes_per_op", "B/op"},
}

// perLayer are the traced run's metrics, by module. A layer a workload
// does not exercise reads 0. The prof.* metrics are self time the
// program's own profiler reports, not timed by the benchmark.
var perLayer = []metricDef{
	{"trace_overhead", "ratio"},
	{"stream.produce_us", "us"},
	{"stream.poll_us", "us"},
	{"stream.commit_us", "us"},
	{"stream.calls_per_op", "count"},
	{"stream.empty_poll_ratio", "ratio"},
	{"stream.errors", "count"},
	{"stream.broker_tick_ms", "ms"},
	{"stream.log_records_end", "count"},
	{"hbase.flushes", "count"},
	{"hbase.compactions", "count"},
	{"hbase.store_files_end", "count"},
	{"hbase.memstore_cells_end", "count"},
	{"hbase.scan_prefix_ms_p50", "ms"},
	{"hbase.scan_prefix_ms_p99", "ms"},
	{"hbase.get_us_p50", "us"},
	{"hdfs.block_writes", "count"},
	{"hdfs.files_end", "count"},
	{"hdfs.stored_bytes_end", "B"},
	{"hdfs.space_amplification", "ratio"},
	{"core.frame_self_us", "us"},
	{"core.tick_p50_ms", "ms"},
	{"core.monitor_tick_ms", "ms"},
	{"core.fleet_tick_ms", "ms"},
	{"core.offload_ratio", "ratio"},
	{"core.tick_growth", "ratio"},
	{"tsdb.scrape_ms", "ms"},
	{"tsdb.alert_eval_ms", "ms"},
	{"profile.tick_ms", "ms"},
	{"incident.tick_ms", "ms"},
	{"control.tick_ms", "ms"},
	{"tsdb.series", "count"},
	{"incident.opened", "count"},
	{"control.knob_changes", "count"},
	{"web.metrics_ms_p50", "ms"},
	{"web.query_rate_ms_p50", "ms"},
	{"web.query_sum_ms_p50", "ms"},
	{"web.cameras_ms_p50", "ms"},
	{"web.crimes_district_ms_p50", "ms"},
	{"web.tweets_near_ms_p50", "ms"},
	{"web.profile_ms_p50", "ms"},
	{"web.incidents_ms_p50", "ms"},
	{"web.trace_ms_p50", "ms"},
	{"tsdb.query_us_p50", "us"},
	{"docstore.near_ms_p50", "ms"},
	{"telemetry.metrics_render_ms", "ms"},
	{"telemetry.traces_retained", "count"},
	{"telemetry.exemplar_resolve_ratio", "ratio"},
	{"prof.ingest_gate_us_per_op", "us/op"},
	{"prof.broker_append_replicate_us_per_op", "us/op"},
	{"prof.broker_poll_us_per_op", "us/op"},
	{"prof.hbase_wal_us_per_op", "us/op"},
	{"prof.hbase_flush_us_per_op", "us/op"},
	{"prof.hdfs_write_us_per_op", "us/op"},
	{"prof.tsdb_scrape_us_per_op", "us/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
}

// minEpisodes is the fewest episodes of each kind a run makes, however
// long they take: enough for a median set-up time, and in a traced run for
// both sides of the untraced/traced comparison.
const minEpisodes = 3

// traceDir is where a traced run writes its spans, relative to the
// working directory.
const traceDir = ".bench_build/citybench-traces"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("citybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-soak, city-records or operator-reads")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "start episodes until this many seconds have passed")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced episodes and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "citybench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	traced := *trace == 1
	fmt.Fprintf(stdout, "citybench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	var plain, tracedEps []*episode
	start := time.Now()
	budget := time.Duration(*seconds) * time.Second
	for i := 0; ; i++ {
		withTrace := traced && i%2 == 1
		e, err := runEpisode(w.newRun, *seed, withTrace)
		if err != nil {
			fmt.Fprintf(stderr, "citybench: %s episode %d: %v\n", w.name, i, err)
			return 1
		}
		fmt.Fprintf(stderr, "citybench: episode %d traced=%v setup=%.4fs wall=%.3fs ops/s=%.1f op_p50=%.4fms tick_p50=%.3fms heap=%.1fMB\n",
			i, withTrace, e.setup.Seconds(), e.wall.Seconds(), float64(e.ops)/e.wall.Seconds(),
			median(e.opMs), median(e.tickMs), float64(e.heapRetained)/1e6)
		if withTrace {
			tracedEps = append(tracedEps, e)
		} else {
			plain = append(plain, e)
		}
		enough := len(plain) >= minEpisodes && (!traced || len(tracedEps) >= minEpisodes)
		if enough && time.Since(start) >= budget {
			break
		}
	}

	all := append(append([]*episode(nil), plain...), tracedEps...)
	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, e := range all {
		res.Attempted += e.attempted
		res.Failed += e.failed
	}
	if diff := countsDiffer(all); diff != "" {
		fmt.Fprintf(stderr, "citybench: deterministic counts differ between episodes: %s\n", diff)
		res.Correct = false
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	counts, _ := json.Marshal(all[0].counts) // map[string]int64 always marshals
	fmt.Fprintf(stdout, "counters %s\n", counts)

	var values map[string]float64
	var err error
	if traced {
		values = layerValues(plain, tracedEps)
		eps := make([][]span, len(tracedEps))
		for i, e := range tracedEps {
			eps[i] = e.tr.spans
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.tsv", w.name, *seed))
		if err := writeSpans(path, eps); err != nil {
			fmt.Fprintf(stderr, "citybench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans of %d traced episodes written to %s\n", len(eps), path)
	} else if values, err = endToEndValues(plain); err != nil {
		fmt.Fprintf(stderr, "citybench: %v\n", err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	k, _ := highestTail(len(plain[0].opMs))
	fmt.Fprintf(stdout, "%d untraced and %d traced episodes in %.1f s; op = %s; %d latency samples per episode; op_tail_ms = %s\n",
		len(plain), len(tracedEps), time.Since(start).Seconds(), w.opKind, len(plain[0].opMs), tailName(k))
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", d.name, v, d.unit)
	}
	out, _ := json.Marshal(res) // plain structs of finite numbers
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// endToEndValues aggregates the untraced episodes. Set-up time, heap and
// allocation are medians across episodes. Throughput is all ops over all
// measured wall time, and latencies are percentiles of all episodes' samples
// pooled: on this benchmark's noisy hosts those were steadier from run to
// run than medians of per-episode values. The tail is the highest
// percentile one episode's op count supports; episode sizes are fixed, so
// it is the same percentile on every run of a workload.
func endToEndValues(eps []*episode) (map[string]float64, error) {
	k, ok := highestTail(len(eps[0].opMs))
	if !ok {
		return nil, fmt.Errorf("op_tail_ms: %w", errTooFewSamples)
	}
	var setup, heap, alloc, opMs []float64
	var ops, wall float64
	for _, e := range eps {
		setup = append(setup, e.setup.Seconds())
		heap = append(heap, float64(e.heapRetained)/1e6)
		alloc = append(alloc, float64(e.allocBytes)/float64(e.ops))
		opMs = append(opMs, e.opMs...)
		ops += float64(e.ops)
		wall += e.wall.Seconds()
	}
	tail, err := tailPercentile(opMs, k)
	if err != nil {
		return nil, fmt.Errorf("op_tail_ms: %w", err)
	}
	return map[string]float64{
		"setup_s":            median(setup),
		"ops_per_s":          ops / wall,
		"op_p50_ms":          median(opMs),
		"op_tail_ms":         tail,
		"heap_retained_mb":   median(heap),
		"alloc_bytes_per_op": median(alloc),
	}, nil
}

// layerValues takes each per-layer metric's median across the traced
// episodes, and the tracing overhead from the ops_per_s of both kinds.
func layerValues(plain, traced []*episode) map[string]float64 {
	out := make(map[string]float64)
	for _, d := range perLayer {
		var vs []float64
		for _, e := range traced {
			vs = append(vs, e.layer[d.name])
		}
		out[d.name] = median(vs)
	}
	rate := func(eps []*episode) float64 {
		var ops, wall float64
		for _, e := range eps {
			ops += float64(e.ops)
			wall += e.wall.Seconds()
		}
		return ops / wall
	}
	if r := rate(traced); r > 0 {
		out["trace_overhead"] = rate(plain)/r - 1
	}
	return out
}

// countsDiffer compares every episode's deterministic counts with the
// first's and describes the first difference, or returns "".
func countsDiffer(eps []*episode) string {
	for i, e := range eps[1:] {
		if !reflect.DeepEqual(e.counts, eps[0].counts) {
			return fmt.Sprintf("episode %d %v, episode 0 %v", i+1, e.counts, eps[0].counts)
		}
	}
	return ""
}
