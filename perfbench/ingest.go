package main

import (
	"fmt"
	"time"

	"bytebrain"
	"bytebrain/internal/core"
	"bytebrain/internal/logstore"
	"bytebrain/internal/metrics"
	"bytebrain/internal/segment"
)

// distinctLines is how many lines each mix dataset contributes to one
// pass of the ingest-distinct stream: one pass lasts a 15-second run at
// up to about 28 000 lines/s. A faster run generates further passes
// from derived seeds; generation time is not counted as ingest time.
const distinctLines = 75000

// An ingest run pauses once, at a checkpoint a fixed number of
// measured lines in, to score ga over those lines with the model as it
// then stands and to weigh the live heap. A fixed checkpoint keeps both
// independent of how many lines a run gets through: later training
// cycles keep reshaping the model, and the heap grows with the records
// stored. The repeat stream is five times faster, so its checkpoint
// sits five times further in.
const (
	distinctCheckpoint = 10 * trainEvery
	repeatCheckpoint   = 50 * trainEvery
)

// runIngestDistinct streams the interleaved LogHub-2.0 mix: most lines
// are new, so the line cache mostly misses and the matcher's miss path
// and the trainer do most of the work.
func runIngestDistinct(r *run) error {
	return runIngest(r, distinctCheckpoint, func() (*stream, error) { return mixStream(r.seed, distinctLines) })
}

// runIngestRepeat replays the Zookeeper cut: the line cache serves most
// lines, so transport, group-commit append, WAL and seals dominate.
func runIngestRepeat(r *run) error {
	return runIngest(r, repeatCheckpoint, func() (*stream, error) { return repeatStream(r.seed) })
}

// ingester drives one harness in the closed loop of the ingest
// workloads: frames of frameLines lines, window frames in flight, and a
// Service.Train call after every trainEvery acked lines.
type ingester struct {
	r     *run
	h     *harness
	in    *stream
	acked int // lines acked so far; line i of the stream is offset i

	lat      []float64 // per-frame write-to-ack latency, ms
	trains   []float64 // Train call durations, s
	encode   time.Duration
	inflight time.Duration // time with at least one frame unacked
	temps    int           // temporary templates minted, summed over cycles
}

// cycle sends the next trainEvery lines, drains the ack window and
// trains, under one trace span.
func (g *ingester) cycle() error {
	tr := g.r.tr
	cycleID, cycleStart := tr.id(), time.Now()
	if err := g.in.ensure(g.acked + trainEvery); err != nil {
		return err
	}
	lines := g.in.lines[g.acked : g.acked+trainEvery]
	c := g.h.conn
	inflight := 0
	var busySince time.Time
	await := func() error {
		a, err := c.awaitAck()
		g.r.op(err == nil)
		if err != nil {
			return err
		}
		g.lat = append(g.lat, ms(a.latency))
		tr.record(a.span, cycleID, a.span, "client.frame", a.at.Add(-a.latency), a.at)
		if inflight--; inflight == 0 {
			g.inflight += a.at.Sub(busySince)
		}
		return nil
	}
	for off := 0; off < len(lines); off += frameLines {
		for inflight >= window {
			if err := await(); err != nil {
				return err
			}
		}
		g.h.clock.advance(frameLines * lineStep)
		span, due := tr.id(), time.Now()
		if inflight == 0 {
			busySince = due
		}
		if err := c.send(lines[off:off+frameLines], due, span); err != nil {
			return err
		}
		sent := time.Now()
		g.encode += sent.Sub(due)
		tr.add(span, span, "client.encode", due, sent)
		inflight++
	}
	drain := time.Now()
	for inflight > 0 {
		if err := await(); err != nil {
			return err
		}
	}
	stats, err := g.h.svc.TopicStats(topic)
	if err != nil {
		return err
	}
	if model, err := g.h.svc.Model(topic); err != nil {
		return err
	} else if model != nil {
		g.temps += stats.Templates - model.Len()
	}
	trainStart := time.Now()
	tr.add(cycleID, 0, "client.drain", drain, trainStart)
	err = g.h.svc.Train(topic)
	end := time.Now()
	g.r.op(err == nil)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	tr.add(cycleID, 0, "service.train", trainStart, end)
	tr.record(cycleID, 0, 0, "ingest.cycle", cycleStart, end)
	g.trains = append(g.trains, end.Sub(trainStart).Seconds())
	g.acked += len(lines)
	return nil
}

// setupIngest builds the measured state r.reps times and keeps the last:
// inputs, service, listener and connection, and one warm-up cycle so
// the measured phase starts with a trained model.
func setupIngest(r *run, gen func() (*stream, error)) (*ingester, uint64, error) {
	var g *ingester
	var heap0 uint64
	var setups []float64
	for i := 0; i < r.reps; i++ {
		if g != nil {
			if err := g.h.close(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		in, err := gen()
		if err != nil {
			return nil, 0, err
		}
		heap0 = heapBytes()
		h, err := startHarness(r.workDir)
		if err != nil {
			return nil, 0, err
		}
		g = &ingester{r: newRun(r.options, 0, false), h: h, in: in}
		if err := g.cycle(); err != nil {
			h.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", quantile(setups, 0.5))
	// Measure from here on a clean slate: the warm-up's frames, Train
	// call and operations count toward set-up only.
	return &ingester{r: r, h: g.h, in: g.in, acked: g.acked}, heap0, nil
}

func runIngest(r *run, checkpoint int, gen func() (*stream, error)) error {
	g, heap0, err := setupIngest(r, gen)
	if err != nil {
		return err
	}
	defer g.h.close()
	svc := g.h.svc
	before, err := scrapeRegistry(svc)
	if err != nil {
		return err
	}
	alloc0, gc0 := memCounters()
	from, gen0 := g.acked, g.in.genTime
	ga, gaN := -1.0, 0
	var heap uint64
	var paused time.Duration // spent at the checkpoint, not ingesting
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds) * time.Second)
	for time.Now().Before(deadline) {
		if err := g.cycle(); err != nil {
			return err
		}
		if ga < 0 && g.acked-from >= checkpoint {
			t := time.Now()
			if ga, gaN, err = scoreIngest(svc, g.in, from, from+checkpoint); err != nil {
				return err
			}
			heap = heapBytes()
			paused += time.Since(t)
		}
	}
	wall := time.Since(start) - (g.in.genTime - gen0) - paused
	alloc1, gc1 := memCounters()
	after, err := scrapeRegistry(svc)
	if err != nil {
		return err
	}
	lines := g.acked - from
	r.set("logs_per_s", float64(lines)/wall.Seconds())
	r.set("op_p50_ms", quantile(g.lat, 0.5))
	r.set("op_p90_ms", quantile(g.lat, 0.9))
	r.set("client.ack_p50_ms", quantile(g.lat, 0.5))
	r.set("client.ack_p99_ms", quantile(g.lat, 0.99))
	r.note("ingest_logs_per_s %.6g 1/s over %d lines in %.3fs", float64(lines)/wall.Seconds(), lines, wall.Seconds())
	r.note("ack_p50_ms %.6g ms, ack_p99_ms %.6g ms over %d frames", quantile(g.lat, 0.5), quantile(g.lat, 0.99), len(g.lat))
	r.set("runtime.alloc_bytes_per_line", float64(alloc1-alloc0)/float64(lines))
	r.set("runtime.gc_cycles", float64(gc1-gc0))
	r.set("workload.unique_line_ratio", g.in.uniqueRatio(from, g.acked))
	r.note("inputs: %d-line passes, %d lines measured after a %d-line warm-up, %d raw bytes", len(g.in.lines)/max(g.in.passes, 1), lines, from, g.in.rawBytes(from, g.acked))

	r.set("core.match.temporaries", float64(g.temps))
	if ga < 0 {
		// The run ended before the checkpoint: score and weigh what it
		// measured.
		if ga, gaN, err = scoreIngest(svc, g.in, from, g.acked); err != nil {
			return err
		}
		heap = heapBytes()
	}
	r.set("live_heap_mb", (float64(heap)-float64(heap0))/1e6)
	registryLayers(r, before, after, g.in.rawBytes(from, g.acked))
	attribution(r, wall, g)
	if err := g.h.finish(r, g.in, g.acked); err != nil {
		return err
	}
	r.set("ga", ga)
	r.verify("ga_floor", ga >= gaFloor[r.workload], "ga %.4f over the first %d measured records, floor %.2f", ga, gaN, gaFloor[r.workload])
	if r.tr != nil {
		return ingestReplays(r, svc, g.in, from, g.acked)
	}
	return nil
}

// scoreIngest scores ga over stored records [from, to) with the
// topic's current model.
func scoreIngest(svc *bytebrain.Service, in *stream, from, to int) (float64, int, error) {
	store, err := svc.Store(topic)
	if err != nil {
		return 0, 0, err
	}
	model, err := svc.Model(topic)
	if err != nil {
		return 0, 0, err
	}
	recs, err := scanRecords(store, from, to)
	if err != nil {
		return 0, 0, err
	}
	ga, err := ingestGA(model, recs, in.truth[from:to])
	return ga, len(recs), err
}

// registryLayers turns registry deltas over the measured phase into
// per-layer metrics.
func registryLayers(r *run, before, after scrape, rawBytes int64) {
	d := func(series string) float64 { return delta(before, after, series) }
	hits, misses := d(topicSeries("bb_line_cache_hits_total")), d(topicSeries("bb_line_cache_misses_total"))
	r.set("service.linecache.hit_ratio", ratio(hits, hits+misses))
	r.set("service.linecache.evictions", d(topicSeries("bb_line_cache_evictions_total")))
	r.set("service.ingest.match_s", d(topicSeries("bb_ingest_match_seconds_sum")))
	r.set("service.ingest.append_s", d(topicSeries("bb_ingest_append_seconds_sum")))
	r.set("netingest.frame_s", d("bb_netingest_frame_seconds_sum"))
	r.set("netingest.busy_acks", d("bb_netingest_busy_total"))
	r.set("logstore.wal.bytes_per_raw_byte", ratio(d(topicSeries("bb_wal_append_bytes_total")), float64(rawBytes)))
	r.set("logstore.wal.fsyncs", d(topicSeries("bb_wal_fsyncs_total")))
	r.set("logstore.wal.fsync_s", d(topicSeries("bb_wal_fsync_seconds_sum")))
	r.set("logstore.seal.count", d(topicSeries("bb_store_seals_total")))
	r.set("logstore.seal.s", d(topicSeries("bb_store_seal_seconds_sum")))
}

// attribution checks that match, append and benchmark-driven Train time
// account for the ingest wall time, and names the largest stage that
// does not.
func attribution(r *run, wall time.Duration, g *ingester) {
	var train float64
	for _, t := range g.trains {
		train += t
	}
	r.set("service.train.cycles", float64(len(g.trains)))
	r.set("service.train.cycle_p50_s", quantile(g.trains, 0.5))
	r.set("service.train.busy_s", train)
	match, appendS := r.metrics["service.ingest.match_s"], r.metrics["service.ingest.append_s"]
	w := wall.Seconds()
	unattributed := w - match - appendS - train
	r.set("service.ingest.unattributed_share", unattributed/w)
	verdict := "within"
	if unattributed > 0.1*w {
		verdict = "over"
	}
	r.note("attribution: wall %.3fs = match %.3fs + append %.3fs + train %.3fs + unattributed %.3fs (%.1f%%, %s the 10%% target)",
		w, match, appendS, train, unattributed, 100*unattributed/w, verdict)
	// The unattributed time splits exactly into two stages: time with a
	// frame in flight that match and append do not cover (wire, frame
	// decode, reservoir offer, ack), and time with no frame in flight
	// and no Train running (the client between cycles).
	wire := g.inflight.Seconds() - match - appendS
	gaps := w - g.inflight.Seconds() - train
	largest, s := "transport and frame handling outside match+append", wire
	if gaps > wire {
		largest, s = "client gaps with no frame in flight", gaps
	}
	r.note("unattributed stages: transport and frame handling outside match+append %.3fs, client gaps %.3fs, client encode+write (overlapped) %.3fs",
		wire, gaps, g.encode.Seconds())
	r.note("largest unattributed stage: %s (%.3fs)", largest, s)
}

// scanRecords reads records [from, to) in offset order.
func scanRecords(store logstore.Store, from, to int) ([]logstore.Record, error) {
	recs := make([]logstore.Record, 0, to-from)
	store.Scan(int64(from), int64(to), logstore.TimeRange{}, func(rec logstore.Record) bool {
		recs = append(recs, rec)
		return true
	})
	if len(recs) != to-from {
		return nil, fmt.Errorf("scan returned %d records for offsets [%d,%d)", len(recs), from, to)
	}
	return recs, nil
}

// ingestGA scores the records' ingest-time template IDs against the
// generator's truth, rolled up at gaThreshold the way Service.Query
// rolls them up: through the current model, with an ID the model does
// not know (a live temporary) forming its own group.
func ingestGA(model *core.Model, recs []logstore.Record, truth []int) (float64, error) {
	pred := make([]int, len(recs))
	for i, rec := range recs {
		id := rec.TemplateID
		if n, err := model.TemplateAt(id, gaThreshold); err == nil {
			id = n.ID
		}
		pred[i] = int(id)
	}
	return metrics.GroupingAccuracy(pred, truth)
}

// ingestReplays times the layers that only run inside Service.Ingest,
// Train or a seal, on the measured phase's own inputs.
func ingestReplays(r *run, svc *bytebrain.Service, in *stream, from, to int) error {
	model, err := svc.Model(topic)
	if err != nil {
		return err
	}
	store, err := svc.Store(topic)
	if err != nil {
		return err
	}
	recs, err := scanRecords(store, max(from, to-50000), to)
	if err != nil {
		return err
	}
	sample := in.lines[from:min(to, from+20000)]
	preprocessCosts(r, core.New(core.Options{}), sample)
	// The line cache starts empty at each Train, so a line misses when
	// it was not seen since the last cycle began: the last cycle's
	// first occurrences.
	seen := map[string]bool{}
	var missed []string
	for _, l := range in.lines[to-trainEvery : to] {
		if !seen[l] {
			seen[l] = true
			missed = append(missed, l)
		}
	}
	if err := matchMisses(r, model, missed); err != nil {
		return err
	}
	segRecs := make([]segment.Record, 0, len(recs))
	for _, rec := range recs {
		segRecs = append(segRecs, segment.Record{Offset: rec.Offset, Time: rec.Time, Raw: rec.Raw, TemplateID: rec.TemplateID})
	}
	_, err = segmentCosts(r, segRecs)
	return err
}
