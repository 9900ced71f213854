package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"bytebrain"
	"bytebrain/internal/logstore"
)

// query-mixed shape. Prefill spans two hours of simulated time in
// one-minute batches that seal into many small segments; the model is
// trained twice during prefill and then stays fixed. Queries and writes
// arrive open-loop at fixed rates, the writes far below what ingest
// sustains.
const (
	prefillLines   = 120000
	prefillFirst   = 20000 // lines ingested before the first Train
	prefillBatch   = 1000
	prefillStep    = time.Minute     // simulated time per prefill batch
	queryRate      = 40              // queries per second
	writeRate      = 4000            // lines per second
	rangeWindow    = 3 * time.Minute // grouped time-range queries
	lookupWindow   = 5 * time.Minute // by-template lookups
	queryKindCount = 4
)

var queryKinds = [queryKindCount]string{"grouped", "range", "search", "bytemplate"}

// query is one planned query. want is the offset a search or by-template
// result must contain, or the record count a range query must return.
type query struct {
	kind      int
	threshold float64
	tr        bytebrain.TimeRange
	token     string
	id        uint64
	want      int64
}

// prefill is the state query-mixed measures against.
type prefill struct {
	h       *harness
	in      *stream
	batches []time.Time // timestamp of each prefill batch
	end     time.Time   // first timestamp after prefill
	plan    []query
}

// countIn is the number of prefill records whose timestamp lies in tr.
func (p *prefill) countIn(tr bytebrain.TimeRange) int64 {
	var n int64
	for b, t := range p.batches {
		if !t.Before(tr.From) && !t.After(tr.To) {
			n += int64(min(prefillBatch, prefillLines-b*prefillBatch))
		}
	}
	return n
}

func setupQuery(r *run) (*prefill, uint64, error) {
	var p *prefill
	var heap0 uint64
	var setups []float64
	for i := 0; i < r.reps; i++ {
		if p != nil {
			if err := p.h.close(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		// One pass of the mix holds the prefill and every line the
		// write stream will send.
		need := prefillLines + writeRate*r.seconds
		in, err := mixStream(r.seed, need/len(mixNames)+1)
		if err != nil {
			return nil, 0, err
		}
		if err := in.ensure(need); err != nil {
			return nil, 0, err
		}
		heap0 = heapBytes()
		h, err := startHarness(r.workDir)
		if err != nil {
			return nil, 0, err
		}
		p = &prefill{h: h, in: in}
		if err := p.fill(); err != nil {
			h.close()
			return nil, 0, err
		}
		if err := p.makePlan(r); err != nil {
			h.close()
			return nil, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", quantile(setups, 0.5))
	return p, heap0, nil
}

// fill ingests the prefill in-process, trains after the first
// prefillFirst lines and again at the end, and seals everything.
func (p *prefill) fill() error {
	svc := p.h.svc
	for lo := 0; lo < prefillLines; lo += prefillBatch {
		t := epoch.Add(time.Duration(len(p.batches)) * prefillStep)
		p.h.clock.set(t)
		p.batches = append(p.batches, t)
		if err := svc.Ingest(topic, p.in.lines[lo:min(lo+prefillBatch, prefillLines)]); err != nil {
			return err
		}
		if lo+prefillBatch == prefillFirst {
			if err := svc.Train(topic); err != nil {
				return err
			}
		}
	}
	if err := svc.Train(topic); err != nil {
		return err
	}
	p.end = epoch.Add(time.Duration(len(p.batches)) * prefillStep)
	p.h.clock.set(p.end)
	return svc.Compact(topic)
}

// makePlan draws the measured phase's queries from the seed: each run of
// four holds one query of every kind in random order. Search tokens and
// template IDs come from prefill records read back, so every search and
// by-template result must contain that record's offset.
func (p *prefill) makePlan(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	n := queryRate * r.seconds
	n -= n % queryKindCount
	offs := make([]int64, n)
	for i := range offs {
		offs[i] = rng.Int63n(prefillLines)
	}
	recs, err := p.h.svc.Records(topic, offs)
	if err != nil {
		return err
	}
	counts := needleCounts(p.in.lines[:prefillLines])
	thresholds := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	span := p.end.Sub(epoch) - rangeWindow
	p.plan = make([]query, 0, n)
	for len(p.plan) < n {
		for _, k := range rng.Perm(queryKindCount) {
			i := len(p.plan)
			q := query{kind: k, threshold: thresholds[rng.Intn(len(thresholds))]}
			switch queryKinds[k] {
			case "range":
				from := epoch.Add(time.Duration(rng.Int63n(int64(span))))
				q.tr = bytebrain.TimeRange{From: from, To: from.Add(rangeWindow)}
				q.want = p.countIn(q.tr)
			case "search":
				// Search for a needle of the sampled record, or of the
				// next sampled record that has one.
				for j := i; j < i+len(recs); j++ {
					rec := recs[j%len(recs)]
					if tok, ok := needle(rng, rec.Raw, counts); ok {
						q.token, q.want = tok, rec.Offset
						break
					}
				}
				if q.token == "" {
					return fmt.Errorf("no sampled prefill record carries a needle token")
				}
			case "bytemplate":
				// A drill-down: one template's records around the
				// sampled one.
				at := recs[i].Time.Add(-time.Duration(rng.Int63n(int64(lookupWindow))))
				q.tr = bytebrain.TimeRange{From: at, To: at.Add(lookupWindow)}
				q.id, q.want = recs[i].TemplateID, offs[i]
			}
			p.plan = append(p.plan, q)
		}
	}
	return nil
}

// maxNeedle is the most prefill lines a search token may appear in:
// searches look for needles (a block ID, an address, a request ID), the
// search the segments' bloom filters exist to answer.
const maxNeedle = 5

// needleCounts counts, over the prefill, every token with four or more
// digits: the identifier-like tokens searches draw from.
func needleCounts(lines []string) map[string]int {
	counts := map[string]int{}
	for _, l := range lines {
		for _, f := range strings.Fields(l) {
			if digitCount(f) >= 4 {
				counts[f]++
			}
		}
	}
	return counts
}

func digitCount(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			n++
		}
	}
	return n
}

// needle returns a token of line that appears in at most maxNeedle
// prefill lines; ok is false when the line has none.
func needle(rng *rand.Rand, line string, counts map[string]int) (token string, ok bool) {
	var ids []string
	for _, f := range strings.Fields(line) {
		if n := counts[f]; n > 0 && n <= maxNeedle {
			ids = append(ids, f)
		}
	}
	if len(ids) == 0 {
		return "", false
	}
	return ids[rng.Intn(len(ids))], true
}

// kindStats is one query kind's measurements.
type kindStats struct {
	lat, call []float64 // ms from due time; ms of the call alone
	bad       int
	read      int64
	pruned    int64
}

// runQueryMixed measures open-loop queries of four kinds beside an
// open-loop write stream over TCP.
func runQueryMixed(r *run) error {
	p, heap0, err := setupQuery(r)
	if err != nil {
		return err
	}
	defer p.h.close()
	svc := p.h.svc
	store, err := svc.Store(topic)
	if err != nil {
		return err
	}
	model, err := svc.Model(topic)
	if err != nil {
		return err
	}
	before, err := scrapeRegistry(svc)
	if err != nil {
		return err
	}
	alloc0, gc0 := memCounters()
	start := time.Now()

	var w writer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.run(r, p, start)
	}()
	// On an early return the writer still finishes its schedule before
	// the deferred close tears the service down.
	defer wg.Wait()

	kinds := make([]kindStats, queryKindCount)
	var lateness []float64
	for i, q := range p.plan {
		due := start.Add(time.Duration(i) * time.Second / queryRate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lateness = append(lateness, ms(time.Since(due)))
		ok, err := runQuery(r, svc, store, q, due, &kinds[q.kind])
		r.op(ok && err == nil)
		if err != nil {
			return err
		}
	}
	wg.Wait()
	if w.err != nil {
		return w.err
	}
	for range w.lat {
		r.op(true)
	}
	alloc1, gc1 := memCounters()
	after, err := scrapeRegistry(svc)
	if err != nil {
		return err
	}
	lateness = append(lateness, w.lateness...)

	var all []float64
	for k, ks := range kinds {
		all = append(all, ks.lat...)
		name := queryKinds[k]
		n := float64(len(ks.call))
		r.set("service.query."+name+".p50_ms", quantile(ks.call, 0.5))
		r.note("query_%s_p50_ms %.6g ms from due time over %d queries", name, quantile(ks.lat, 0.5), len(ks.lat))
		r.verify("query_"+name+"_results", ks.bad == 0, "%d of %d %s queries returned wrong results", ks.bad, len(ks.lat), name)
		if r.tr != nil {
			r.set("segment.blocks_read_per_query."+name, ratio(float64(ks.read), n))
			r.set("segment.blocks_pruned_per_query."+name, ratio(float64(ks.pruned), n))
		}
	}
	r.set("op_p50_ms", quantile(all, 0.5))
	r.set("op_p90_ms", quantile(all, 0.9))
	r.note("query_p99_ms %.6g ms over %d queries", quantile(all, 0.99), len(all))
	r.set("loadgen.lateness_p99_ms", quantile(lateness, 0.99))
	r.set("client.ack_p50_ms", quantile(w.lat, 0.5))
	r.set("client.ack_p99_ms", quantile(w.lat, 0.99))
	r.note("ack_p50_ms %.6g ms, ack_p99_ms %.6g ms from due time over %d frames", quantile(w.lat, 0.5), quantile(w.lat, 0.99), len(w.lat))
	r.set("logs_per_s", float64(w.acked)/w.wall.Seconds())
	r.note("ingest_logs_per_s %.6g 1/s over %d lines at an offered %d lines/s", float64(w.acked)/w.wall.Seconds(), w.acked, writeRate)
	r.set("runtime.alloc_bytes_per_line", float64(alloc1-alloc0)/float64(w.acked))
	r.set("runtime.gc_cycles", float64(gc1-gc0))
	from, to := prefillLines, prefillLines+w.acked
	r.set("workload.unique_line_ratio", p.in.uniqueRatio(from, to))
	r.note("inputs: %d prefill lines in %d batches over %s, %d queries at %d/s, %d lines written at %d/s",
		prefillLines, len(p.batches), p.end.Sub(epoch), len(p.plan), queryRate, w.acked, writeRate)
	registryLayers(r, before, after, p.in.rawBytes(from, to))
	r.set("live_heap_mb", (float64(heapBytes())-float64(heap0))/1e6)
	if err := p.h.finish(r, p.in, to); err != nil {
		return err
	}
	recs, err := scanRecords(store, from, to)
	if err != nil {
		return err
	}
	ga, err := ingestGA(model, recs, p.in.truth[from:to])
	if err != nil {
		return err
	}
	r.set("ga", ga)
	r.verify("ga_floor", ga >= gaFloor[r.workload], "ga %.4f over the %d written records, floor %.2f", ga, len(recs), gaFloor[r.workload])
	return nil
}

// runQuery runs one query, times it from its due time, and checks the
// result. It reports whether the result was right.
func runQuery(r *run, svc *bytebrain.Service, store logstore.Store, q query, due time.Time, ks *kindStats) (bool, error) {
	var st0 bytebrain.TopicStats
	if r.tr != nil {
		var err error
		if st0, err = svc.TopicStats(topic); err != nil {
			return false, err
		}
	}
	lenBefore := int64(store.Len())
	start := time.Now()
	var ok bool
	switch queryKinds[q.kind] {
	case "grouped", "range":
		rows, err := svc.Query(topic, q.threshold, q.tr)
		if err != nil {
			return false, err
		}
		var sum int64
		for _, row := range rows {
			sum += int64(row.Count)
		}
		if q.tr.From.IsZero() {
			// Writes land while the query runs: the count must sit
			// between the store's length before and after it.
			ok = sum >= lenBefore && sum <= int64(store.Len())
		} else {
			ok = sum == q.want
		}
	case "search":
		offs, err := svc.Search(topic, q.token, q.tr)
		if err != nil {
			return false, err
		}
		ok = containsSorted(offs, q.want)
	case "bytemplate":
		offs, err := svc.ByTemplate(topic, q.tr, q.id)
		if err != nil {
			return false, err
		}
		ok = containsSorted(offs, q.want)
	}
	end := time.Now()
	ks.lat = append(ks.lat, ms(end.Sub(due)))
	ks.call = append(ks.call, ms(end.Sub(start)))
	if !ok {
		ks.bad++
	}
	if r.tr != nil {
		id := r.tr.id()
		r.tr.record(id, 0, id, "query."+queryKinds[q.kind], start, end)
		st1, err := svc.TopicStats(topic)
		if err != nil {
			return false, err
		}
		ks.read += st1.SegmentBlockReads - st0.SegmentBlockReads
		ks.pruned += st1.SegmentBlocksPruned - st0.SegmentBlocksPruned
	}
	return ok, nil
}

// containsSorted reports whether ascending offs holds off.
func containsSorted(offs []int64, off int64) bool {
	i := sort.Search(len(offs), func(i int) bool { return offs[i] >= off })
	return i < len(offs) && offs[i] == off
}

// writer is query-mixed's open-loop ingest stream: one frame of
// frameLines lines every frameLines/writeRate seconds over the harness
// connection, each sent when due (or at once if the previous ack came
// late) and timed from its due time to its ack.
type writer struct {
	lat, lateness []float64
	acked         int
	wall          time.Duration
	err           error
}

func (w *writer) run(r *run, p *prefill, start time.Time) {
	frames := writeRate * r.seconds / frameLines
	interval := time.Second * frameLines / writeRate
	c := p.h.conn
	for k := 0; k < frames; k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w.lateness = append(w.lateness, ms(time.Since(due)))
		p.h.clock.set(p.end.Add(time.Duration(k) * frameLines * lineStep))
		lo := prefillLines + w.acked
		span := r.tr.id()
		sendStart := time.Now()
		if w.err = c.send(p.in.lines[lo:lo+frameLines], due, span); w.err != nil {
			return
		}
		r.tr.add(span, span, "client.encode", sendStart, time.Now())
		a, err := c.awaitAck()
		if err != nil {
			w.err = err
			return
		}
		r.tr.record(span, 0, span, "client.frame", due, a.at)
		w.lat = append(w.lat, ms(a.latency))
		w.acked += a.lines
	}
	w.wall = time.Since(start)
}
