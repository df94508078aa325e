package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/stream"
)

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{100000, 1000, true},
		{10000, 1000, true},
		{9999, 100, true},
		{1000, 100, true},
		{999, 20, true},
		{200, 20, true},
		{199, 10, true},
		{100, 10, true},
		{99, 2, true},
		{20, 2, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := highestTail(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestTail(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

// seq returns 1..n in reverse order, so quantile must sort a copy.
func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i)
	}
	return s
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, k := range tailKs {
		n := minBeyond * k
		samples := seq(n)
		v, err := tailPercentile(samples, k)
		if err != nil {
			t.Fatalf("%s of %d samples: %v", tailName(k), n, err)
		}
		beyond := 0
		for _, s := range samples {
			if s > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("%s of %d samples = %v leaves %d beyond, want %d", tailName(k), n, v, beyond, minBeyond)
		}
		if samples[0] != float64(n) {
			t.Fatalf("tailPercentile reordered its input")
		}
	}
}

func TestTailPercentileRefusesP999Below10k(t *testing.T) {
	if _, err := tailPercentile(seq(9999), 1000); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p999 of 9999 samples: err = %v, want errTooFewSamples", err)
	}
	if _, err := tailPercentile(seq(10000), 1000); err != nil {
		t.Fatalf("p999 of 10000 samples: %v", err)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		num, den int
		want     float64
	}{{1, 2, 3}, {1, 5, 1}, {2, 5, 2}, {99, 100, 5}, {1, 1, 5}, {0, 1, 1}} {
		if got := quantile(s, tc.num, tc.den); got != tc.want {
			t.Errorf("quantile(%v, %d/%d) = %v, want %v", s, tc.num, tc.den, got, tc.want)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "frame", Parent: -1, Start: 0, End: 100},
		{Name: "stream.produce", Parent: 0, Start: 10, End: 30},
		{Name: "stream.poll", Parent: 0, Start: 40, End: 90},
		{Name: "inner", Parent: 2, Start: 50, End: 60},
		{Name: "frame", Parent: -1, Start: 200, End: 250},
	}
	want := []int64{30, 20, 40, 10, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	byName := selfByName(spans)
	if got := byName["frame"]; !reflect.DeepEqual(got, []float64{30e-6, 50e-6}) {
		t.Errorf("frame self ms = %v", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	tr.do("a", func() { tr.do("a.1", func() {}) })
	tr.do("b", func() {})
	tr.end(root)
	tr.do("next", func() {})
	wantParents := []int32{-1, 0, 1, 0, -1}
	for i, s := range tr.spans {
		if s.Parent != wantParents[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, wantParents[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	for i, self := range selfTimes(tr.spans) {
		if self < 0 {
			t.Errorf("span %d self time %d < 0", i, self)
		}
	}

	var off *tracer
	off.do("ignored", func() {})
	off.end(off.begin("ignored"))
}

// fakeBus returns canned results and records what it was called with.
type fakeBus struct {
	recs    []stream.Record
	err     error
	topic   string
	key     string
	value   []byte
	headers map[string]string
	group   string
	max     int
}

func (f *fakeBus) Produce(topic, key string, value []byte) (int, int64, error) {
	f.topic, f.key, f.value = topic, key, value
	return 3, 42, f.err
}

func (f *fakeBus) ProduceH(topic, key string, value []byte, headers map[string]string) (int, int64, error) {
	f.topic, f.key, f.value, f.headers = topic, key, value, headers
	return 2, 7, f.err
}

func (f *fakeBus) Poll(group, topic string, max int) ([]stream.Record, error) {
	f.group, f.topic, f.max = group, topic, max
	return f.recs, f.err
}

func (f *fakeBus) CommitPolled(group, topic string) error {
	f.group, f.topic = group, topic
	return f.err
}

func TestTracedBusPassesThrough(t *testing.T) {
	recs := []stream.Record{{Topic: "frames", Partition: 1, Offset: 9, Key: "cam", Value: []byte("v"),
		Headers: map[string]string{"traceparent": "00-abc"}}}
	fake := &fakeBus{recs: recs}
	tr := newTracer()
	b := &tracedBus{next: fake, tr: tr}

	hdrs := map[string]string{"camera": "dotd-001"}
	val := []byte("body")
	if p, off, err := b.ProduceH("frames", "k", val, hdrs); p != 2 || off != 7 || err != nil {
		t.Fatalf("ProduceH = %d, %d, %v", p, off, err)
	}
	if fake.topic != "frames" || fake.key != "k" || &fake.value[0] != &val[0] || !reflect.DeepEqual(fake.headers, hdrs) {
		t.Fatalf("ProduceH forwarded %q %q %q %v", fake.topic, fake.key, fake.value, fake.headers)
	}
	if p, off, err := b.Produce("tweets", "k2", val); p != 3 || off != 42 || err != nil {
		t.Fatalf("Produce = %d, %d, %v", p, off, err)
	}
	got, err := b.Poll("g", "frames", 4)
	if err != nil || !reflect.DeepEqual(got, recs) || fake.group != "g" || fake.max != 4 {
		t.Fatalf("Poll = %v, %v (forwarded group %q max %d)", got, err, fake.group, fake.max)
	}
	if err := b.CommitPolled("g", "frames"); err != nil {
		t.Fatalf("CommitPolled: %v", err)
	}

	boom := errors.New("boom")
	fake.err, fake.recs = boom, nil
	if _, _, err := b.ProduceH("frames", "k", val, hdrs); err != boom {
		t.Errorf("ProduceH error = %v, want the wrapped bus's error unchanged", err)
	}
	if _, err := b.Poll("g", "frames", 4); err != boom {
		t.Errorf("Poll error = %v, want the wrapped bus's error unchanged", err)
	}
	if err := b.CommitPolled("g", "frames"); err != boom {
		t.Errorf("CommitPolled error = %v, want the wrapped bus's error unchanged", err)
	}
	fake.err = nil
	if got, err := b.Poll("g", "frames", 4); err != nil || len(got) != 0 {
		t.Fatalf("empty Poll = %v, %v", got, err)
	}

	if b.produces != 3 || b.polls != 3 || b.commits != 2 || b.errors != 3 || b.emptyPolls != 1 {
		t.Errorf("counts produces=%d polls=%d commits=%d errors=%d empty=%d",
			b.produces, b.polls, b.commits, b.errors, b.emptyPolls)
	}
	names := map[string]int{}
	for _, s := range tr.spans {
		names[s.Name]++
	}
	if names["stream.produce"] != 3 || names["stream.poll"] != 3 || names["stream.commit"] != 2 {
		t.Errorf("spans by name = %v", names)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the printed metrics and
// BENCHMARK.json's declaration in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, citybench prints %d", kind, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", kind, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, citybench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, citybench %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestTracedEpisodeTimesEveryLayer runs one traced city-records episode,
// the workload that leaves the most layers out of its measured phase, and
// checks that the probe gives every per-layer timing a measured value.
func TestTracedEpisodeTimesEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the infrastructure and runs a full episode")
	}
	e, err := runEpisode(workloads[1].newRun, 3, true) // city-records
	if err != nil {
		t.Fatal(err)
	}
	if e.failed != 0 {
		t.Fatalf("episode failed %d of %d checks", e.failed, e.attempted)
	}
	for _, d := range perLayer {
		switch d.unit {
		case "ms", "us", "us/op":
			if e.layer[d.name] <= 0 {
				t.Errorf("%s = %v %s, want a measured time", d.name, e.layer[d.name], d.unit)
			}
		}
	}
}
