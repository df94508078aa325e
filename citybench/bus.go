package main

import "repro/internal/stream"

// tracedBus wraps the infrastructure's stream.Bus in a traced run: every
// produce, poll and commit the pipelines make becomes a span, nested under
// the benchmark span (frame or record batch) that caused it, and is counted.
// It forwards arguments and results unchanged.
type tracedBus struct {
	next stream.Bus
	tr   *tracer

	produces, polls, emptyPolls, commits, errors int64
}

var _ stream.Bus = (*tracedBus)(nil)

func (b *tracedBus) Produce(topic, key string, value []byte) (int, int64, error) {
	id := b.tr.begin("stream.produce")
	p, off, err := b.next.Produce(topic, key, value)
	b.tr.end(id)
	b.produces++
	b.count(err)
	return p, off, err
}

func (b *tracedBus) ProduceH(topic, key string, value []byte, headers map[string]string) (int, int64, error) {
	id := b.tr.begin("stream.produce")
	p, off, err := b.next.ProduceH(topic, key, value, headers)
	b.tr.end(id)
	b.produces++
	b.count(err)
	return p, off, err
}

func (b *tracedBus) Poll(group, topic string, max int) ([]stream.Record, error) {
	id := b.tr.begin("stream.poll")
	recs, err := b.next.Poll(group, topic, max)
	b.tr.end(id)
	b.polls++
	if err == nil && len(recs) == 0 {
		b.emptyPolls++
	}
	b.count(err)
	return recs, err
}

func (b *tracedBus) CommitPolled(group, topic string) error {
	id := b.tr.begin("stream.commit")
	err := b.next.CommitPolled(group, topic)
	b.tr.end(id)
	b.commits++
	b.count(err)
	return err
}

func (b *tracedBus) count(err error) {
	if err != nil {
		b.errors++
	}
}

// calls is the number of bus operations seen.
func (b *tracedBus) calls() int64 { return b.produces + b.polls + b.commits }
