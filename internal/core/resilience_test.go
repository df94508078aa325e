package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/citydata"
	"repro/internal/docstore"
	"repro/internal/faults"
	"repro/internal/retry"
	"repro/internal/stream"
)

func genTweets(t *testing.T, inf *Infrastructure, n int, seed int64) []citydata.Tweet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(inf.Config().Epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := citydata.DefaultTweetConfig(inf.Config().Epoch)
	cfg.Count = n
	tweets, err := citydata.GenerateTweets(cfg, incidents, inf.Gang, rng)
	if err != nil {
		t.Fatal(err)
	}
	return tweets
}

func TestIngest911ThroughBroker(t *testing.T) {
	inf := bootSmall(t)
	calls, err := citydata.Generate911(50, inf.Config().Epoch, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := inf.Ingest911(calls)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Streamed != 50 || stats.Stored != 50 || stats.Dropped != 0 || stats.DeadLettered != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if n := inf.DocDB.Collection("calls911").Count(); n != 50 {
		t.Fatalf("stored calls = %d", n)
	}
}

// TestPoisonedRecordsQuarantined: garbage on the topic must not abort the
// drain — the broker's at-most-once poll would strand every record polled
// alongside it. Instead it lands in the dead-letter collection and the
// well-formed records all arrive, on every record path's topic.
func TestPoisonedRecordsQuarantined(t *testing.T) {
	for _, tc := range []struct {
		topic  string
		n      int
		ingest func(t *testing.T, inf *Infrastructure, n int) (PipelineStats, error)
	}{
		{"tweets", 200, func(t *testing.T, inf *Infrastructure, n int) (PipelineStats, error) {
			return inf.IngestTweets(genTweets(t, inf, n, 2))
		}},
		{"waze", 50, func(t *testing.T, inf *Infrastructure, n int) (PipelineStats, error) {
			reports, err := citydata.GenerateWaze(n, inf.Cameras, inf.Config().Epoch, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			return inf.IngestWaze(reports)
		}},
		{"calls911", 30, func(t *testing.T, inf *Infrastructure, n int) (PipelineStats, error) {
			calls, err := citydata.Generate911(n, inf.Config().Epoch, rand.New(rand.NewSource(4)))
			if err != nil {
				t.Fatal(err)
			}
			return inf.Ingest911(calls)
		}},
	} {
		t.Run(tc.topic, func(t *testing.T) {
			inf := bootSmall(t)
			for i := 0; i < 3; i++ {
				if _, _, err := inf.Broker.Produce(tc.topic, "poison", []byte("{not json")); err != nil {
					t.Fatal(err)
				}
			}
			stats, err := tc.ingest(t, inf, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Stored != tc.n || stats.DeadLettered != 3 || stats.Dropped != 0 {
				t.Fatalf("stats = %+v", stats)
			}
			if stats.Streamed != tc.n+3 {
				t.Fatalf("streamed = %d, want %d", stats.Streamed, tc.n+3)
			}
			letters, err := inf.DeadLetters(tc.topic)
			if err != nil {
				t.Fatal(err)
			}
			if len(letters) != 3 {
				t.Fatalf("dead letters = %d", len(letters))
			}
			for _, l := range letters {
				if l["stage"] != "decode" || l["key"] != "poison" || l["body"] != "{not json" {
					t.Fatalf("letter = %+v", l)
				}
			}
		})
	}
}

// TestChaosIngestDeliversEverythingOnce: at a 10% injected fault rate on
// every seam, the hardened path still delivers every well-formed record
// exactly once — the E18 acceptance bar, at test scale.
func TestChaosIngestDeliversEverythingOnce(t *testing.T) {
	inf := bootSmall(t)
	inf.EnableChaos(faults.NewInjector(faults.Config{Seed: 42, ErrorRate: 0.10}))
	tweets := genTweets(t, inf, 300, 3)
	stats, err := inf.IngestTweets(tweets)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stored != 300 || stats.Dropped != 0 || stats.DeadLettered != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Retries == 0 {
		t.Fatal("no retries at 10% fault rate")
	}
	docs, err := inf.DocDB.Collection("tweets").Find(docstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]int)
	for _, d := range docs {
		ids[d["id"].(string)]++
	}
	if len(ids) != 300 {
		t.Fatalf("distinct tweets stored = %d", len(ids))
	}
	for id, n := range ids {
		if n != 1 {
			t.Fatalf("tweet %s stored %d times", id, n)
		}
	}
	// Backoff ran only on the simulated clock.
	if inf.Clock.Slept() == 0 {
		t.Fatal("retries recorded no simulated backoff")
	}
}

// TestNaivePolicyLosesRecordsUnderChaos: with retries disabled the same
// fault rate visibly breaks the pipeline — the contrast E18 measures.
func TestNaivePolicyLosesRecordsUnderChaos(t *testing.T) {
	inf := bootSmall(t)
	inf.Retry = retry.NewPolicy(retry.Config{MaxAttempts: 1, BaseDelay: time.Millisecond}, 7).
		WithClock(inf.Clock)
	inf.RedriveRounds = 0
	inf.EnableChaos(faults.NewInjector(faults.Config{Seed: 42, ErrorRate: 0.10}))
	tweets := genTweets(t, inf, 300, 3)
	stats, err := inf.IngestTweets(tweets)
	if err == nil && stats.Stored == 300 {
		t.Fatalf("naive pipeline survived 10%% faults: %+v", stats)
	}
}

// TestChaosWazeAnd911 pushes the other two streaming paths through the same
// fault rate.
func TestChaosWazeAnd911(t *testing.T) {
	inf := bootSmall(t)
	inf.EnableChaos(faults.NewInjector(faults.Config{Seed: 9, ErrorRate: 0.08}))
	rng := rand.New(rand.NewSource(4))
	reports, err := citydata.GenerateWaze(120, inf.Cameras, inf.Config().Epoch, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := inf.IngestWaze(reports)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Stored != 120 || ws.Dropped != 0 || ws.DeadLettered != 0 {
		t.Fatalf("waze stats = %+v", ws)
	}
	calls, err := citydata.Generate911(80, inf.Config().Epoch, rng)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := inf.Ingest911(calls)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Stored != 80 || cs.Dropped != 0 || cs.DeadLettered != 0 {
		t.Fatalf("911 stats = %+v", cs)
	}
	inf.DisableChaos()
	if inf.Injector != nil {
		t.Fatal("chaos not detached")
	}
	// The bus stays metered after detach; underneath must be the raw broker
	// again, not the fault-injecting wrapper.
	mb, ok := inf.Bus.(*stream.MeteredBus)
	if !ok {
		t.Fatalf("bus after DisableChaos = %T, want *stream.MeteredBus", inf.Bus)
	}
	if mb.Unwrap() != stream.Bus(inf.Broker) {
		t.Fatalf("inner bus after DisableChaos = %T, want the raw broker", mb.Unwrap())
	}
}
