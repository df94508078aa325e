package stream

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

// single is the smallest cluster: one node, replication 1.
var single = ClusterConfig{Nodes: 1, Replication: 1}

func newSingleNode(t *testing.T, partitions int) *Cluster {
	t.Helper()
	return newTestCluster(t, single, partitions)
}

func TestCreateTopicErrors(t *testing.T) {
	b, err := NewCluster(single)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 0); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("zero partitions err = %v", err)
	}
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 2); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("duplicate err = %v", err)
	}
	if _, err := b.Partitions("missing"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("unknown topic err = %v", err)
	}
}

func TestProducePollRoundTrip(t *testing.T) {
	b := newSingleNode(t, 1)
	for i := 0; i < 5; i++ {
		p, off, err := b.Produce("events", "k", []byte(strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		if p != 0 || off != int64(i) {
			t.Fatalf("produce %d: partition=%d offset=%d", i, p, off)
		}
	}
	recs, err := b.Poll("g", "events", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Value) != "0" || string(recs[1].Value) != "1" {
		t.Fatalf("poll = %v", recs)
	}
	if err := b.CommitPolled("g", "events"); err != nil {
		t.Fatal(err)
	}
	rest := drain(t, b, "g")
	if len(rest) != 3 || rest[0].Offset != 2 || string(rest[2].Value) != "4" {
		t.Fatalf("drain after commit = %v", rest)
	}
	// Polling at the log end is empty, not an error.
	empty, err := b.Poll("g", "events", 10)
	if err != nil || len(empty) != 0 {
		t.Fatalf("poll at end = %v, %v", empty, err)
	}
	if _, err := b.Poll("g", "missing", 1); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("unknown topic err = %v", err)
	}
}

func TestKeyOrderingWithinPartition(t *testing.T) {
	b := newSingleNode(t, 8)
	const perKey = 20
	keys := []string{"camera-1", "camera-2", "camera-3", "camera-4"}
	for i := 0; i < perKey; i++ {
		for _, k := range keys {
			if _, _, err := b.Produce("events", k, []byte(fmt.Sprintf("%s:%d", k, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// All records of one key land in one partition, in production order.
	recs := drain(t, b, "g")
	for _, k := range keys {
		var seq []string
		parts := make(map[int]bool)
		for _, r := range recs {
			if r.Key == k {
				seq = append(seq, string(r.Value))
				parts[r.Partition] = true
			}
		}
		if len(seq) != perKey || len(parts) != 1 {
			t.Fatalf("key %s: %d records across %d partitions, want %d in one", k, len(seq), len(parts), perKey)
		}
		for i, v := range seq {
			if v != fmt.Sprintf("%s:%d", k, i) {
				t.Fatalf("key %s out of order at %d: %s", k, i, v)
			}
		}
	}
}

func TestConsumerGroupPollAndLag(t *testing.T) {
	b := newSingleNode(t, 4)
	const n = 40
	for i := 0; i < n; i++ {
		if _, _, err := b.Produce("events", strconv.Itoa(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	lag, err := b.Lag("g1", "events")
	if err != nil {
		t.Fatal(err)
	}
	if lag != n {
		t.Fatalf("initial lag = %d", lag)
	}
	seen := 0
	for {
		recs, err := b.Poll("g1", "events", 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		seen += len(recs)
		if err := b.CommitPolled("g1", "events"); err != nil {
			t.Fatal(err)
		}
	}
	if seen != n {
		t.Fatalf("group consumed %d, want %d", seen, n)
	}
	lag, _ = b.Lag("g1", "events")
	if lag != 0 {
		t.Fatalf("final lag = %d", lag)
	}
	// A different group sees everything again.
	lag2, _ := b.Lag("g2", "events")
	if lag2 != n {
		t.Fatalf("fresh group lag = %d", lag2)
	}
}

func TestCommitPolledAndCommitted(t *testing.T) {
	b := newSingleNode(t, 2)
	// "k1" routes to one partition; five records there, none elsewhere.
	p, err := b.PartitionFor("events", "k1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := b.Produce("events", "k1", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Poll("g", "events", 10); err != nil {
		t.Fatal(err)
	}
	if off, _ := b.Committed("g", "events", p); off != 0 {
		t.Fatalf("committed before CommitPolled = %d", off)
	}
	if err := b.CommitPolled("g", "events"); err != nil {
		t.Fatal(err)
	}
	off, err := b.Committed("g", "events", p)
	if err != nil {
		t.Fatal(err)
	}
	if off != 5 {
		t.Fatalf("committed = %d", off)
	}
	if off, _ := b.Committed("g", "events", 1-p); off != 0 {
		t.Fatalf("empty partition committed = %d", off)
	}
	if err := b.CommitPolled("g", "missing"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.Committed("g", "events", 9); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("err = %v", err)
	}
}

func TestProduceIsolatesValueBuffer(t *testing.T) {
	b := newSingleNode(t, 1)
	buf := []byte("original")
	if _, _, err := b.Produce("events", "k", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "mutated!")
	recs, _ := b.Poll("g", "events", 1)
	if string(recs[0].Value) != "original" {
		t.Fatal("broker must copy the value at the boundary")
	}
}

func TestConcurrentProducersConsistent(t *testing.T) {
	b := newSingleNode(t, 4)
	const producers, each = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := b.Produce("events", strconv.Itoa(p), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	total, err := b.Lag("fresh", "events")
	if err != nil {
		t.Fatal(err)
	}
	if total != producers*each {
		t.Fatalf("total records = %d, want %d", total, producers*each)
	}
}

// Property: offsets within a partition are dense, starting at 0.
func TestOffsetsDenseProperty(t *testing.T) {
	f := func(keys []string) bool {
		if len(keys) > 200 {
			keys = keys[:200]
		}
		b, err := NewCluster(single)
		if err != nil {
			return false
		}
		if err := b.CreateTopic("t", 3); err != nil {
			return false
		}
		for _, k := range keys {
			if _, _, err := b.Produce("t", k, nil); err != nil {
				return false
			}
		}
		recs, err := b.Poll("g", "t", len(keys))
		if err != nil || len(recs) != len(keys) {
			return false
		}
		next := make(map[int]int64)
		for _, r := range recs {
			if r.Offset != next[r.Partition] {
				return false
			}
			next[r.Partition]++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConsumerGroupRebalance: a second member joining a group mid-consumption
// must pick up exactly where the group's committed offsets stand — between
// the two members every record is delivered exactly once, nothing is
// re-polled, and the group's committed offsets reach the log end.
func TestConsumerGroupRebalance(t *testing.T) {
	const partitions, records = 4, 200
	b := newSingleNode(t, partitions)
	for i := 0; i < records; i++ {
		if _, _, err := b.Produce("events", fmt.Sprintf("key-%d", i), []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(map[string]string) // "partition/offset" → which member got it
	drain := func(member string, max int) int {
		recs, err := b.Poll("g", "events", max)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			key := fmt.Sprintf("%d/%d", r.Partition, r.Offset)
			if prev, dup := seen[key]; dup {
				t.Fatalf("record %s delivered to both %s and %s", key, prev, member)
			}
			seen[key] = member
		}
		if err := b.CommitPolled("g", "events"); err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}

	// Member A consumes part of the backlog alone.
	got := drain("member-a", 70)
	if got != 70 {
		t.Fatalf("member-a first drain = %d", got)
	}
	// Member B joins the same group mid-consumption; both keep polling in
	// alternation until the group has drained the topic.
	for {
		n := drain("member-b", 25)
		n += drain("member-a", 25)
		if n == 0 {
			break
		}
	}

	if len(seen) != records {
		t.Fatalf("group consumed %d distinct records, want %d", len(seen), records)
	}
	var committed int64
	for p := 0; p < partitions; p++ {
		off, err := b.Committed("g", "events", p)
		if err != nil {
			t.Fatal(err)
		}
		committed += off
	}
	if lag, _ := b.Lag("g", "events"); committed != records || lag != 0 {
		t.Fatalf("committed %d of %d records, lag %d", committed, records, lag)
	}
	// A third poll after the rebalance-drain re-delivers nothing.
	if recs, err := b.Poll("g", "events", records); err != nil || len(recs) != 0 {
		t.Fatalf("post-drain poll = %d records, err %v", len(recs), err)
	}
}
