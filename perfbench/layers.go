package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bytebrain/internal/core"
	"bytebrain/internal/datagen"
	"bytebrain/internal/dedup"
	"bytebrain/internal/encode"
	"bytebrain/internal/segment"
	"bytebrain/internal/tokenize"
)

// Layer replays: the traced phase feeds the workload's own inputs
// through a layer's public function to get a per-line cost for layers
// that only run inside a larger call (Train, Service.Ingest, a seal).

// perLine times fn over every line, one at a time on this goroutine,
// and returns the mean cost per line.
func perLine(lines []string, fn func(string)) float64 {
	start := time.Now()
	for _, l := range lines {
		fn(l)
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(len(lines)))
}

// preprocessCosts reports the serial per-line cost of variable masking,
// tokenization, and the two together as the parser runs them.
func preprocessCosts(r *run, p *core.Parser, lines []string) {
	opts := p.Options()
	var masked []string
	r.set("vars.ns_per_line", perLine(lines, func(l string) { masked = append(masked, opts.Replacer.ReplaceTokenSafe(l)) }))
	tok := opts.Tokenizer
	if tok == nil {
		tok = tokenize.NewFast()
	}
	r.set("tokenize.ns_per_line", perLine(masked, func(l string) { tok.Tokenize(l) }))
	r.set("core.preprocess.ns_per_line", perLine(lines, func(l string) { p.PreprocessLine(l) }))
}

// parseLayers accumulates, over one round of Train calls, the time of
// Train's separable steps replayed one by one, the way Train runs them.
type parseLayers struct {
	lines, uniques int
	train          time.Duration
	preprocess     time.Duration
	dedup          time.Duration
	encode         time.Duration
	sample         []string
}

// replay runs Train's preprocessing, dedup and encoding steps on lines
// as Train does (raw dedup, parallel preprocessing of distinct lines,
// weighted dedup that hash-encodes each unique record) and records a
// span for each, under the Train call's round.
func (pl *parseLayers) replay(r *run, p *core.Parser, lines []string, train time.Duration, parent, group int64) error {
	t0 := time.Now()
	firstAt := make(map[string]int, len(lines)/4+1)
	var raw []string
	var weight []int
	for _, l := range lines {
		d, ok := firstAt[l]
		if !ok {
			d = len(raw)
			firstAt[l] = d
			raw = append(raw, l)
			weight = append(weight, 0)
		}
		weight[d]++
	}
	t1 := time.Now()
	records := preprocessParallel(p, raw)
	t2 := time.Now()
	res := dedup.CollapseWeighted(records, weight, encode.HashEncoder{})
	t3 := time.Now()
	var enc []uint64
	for _, u := range res.Uniques {
		enc = encode.HashEncoder{}.Encode(enc[:0], u.Tokens)
	}
	t4 := time.Now()
	if len(res.Uniques) == 0 {
		return fmt.Errorf("dedup of %d lines produced nothing", len(lines))
	}
	// CollapseWeighted hash-encodes each unique record as it goes; the
	// separate encode pass times that share, which dedup then excludes.
	encodeTime := t4.Sub(t3)
	r.tr.add(parent, group, "dedup.raw", t0, t1)
	r.tr.add(parent, group, "core.preprocess", t1, t2)
	r.tr.add(parent, group, "dedup.collapse", t2, t3)
	r.tr.add(parent, group, "encode", t3, t4)
	pl.lines += len(lines)
	pl.uniques += len(res.Uniques)
	pl.train += train
	pl.preprocess += t2.Sub(t1)
	pl.dedup += t1.Sub(t0) + t3.Sub(t2) - encodeTime
	pl.encode += encodeTime
	if len(pl.sample) < 60000 {
		pl.sample = append(pl.sample, lines[:min(len(lines), 10000)]...)
	}
	return nil
}

// report turns the accumulated replays into per-layer metrics.
// core.cluster.self_s is Train time minus the separately timed steps.
func (pl *parseLayers) report(r *run) {
	n := float64(pl.lines)
	r.set("dedup.unique_ratio", ratio(float64(pl.uniques), n))
	r.set("dedup.ns_per_line", ratio(float64(pl.dedup.Nanoseconds()), n))
	r.set("encode.ns_per_line", ratio(float64(pl.encode.Nanoseconds()), n))
	r.set("core.cluster.self_s", (pl.train - pl.preprocess - pl.dedup - pl.encode).Seconds())
	preprocessCosts(r, core.New(core.Options{}), pl.sample)
}

// preprocessParallel preprocesses lines in contiguous chunks on as many
// goroutines as Train's own preprocessing uses.
func preprocessParallel(p *core.Parser, lines []string) [][]string {
	out := make([][]string, len(lines))
	workers := min(p.Options().Parallelism, len(lines), 2*runtime.NumCPU())
	chunk := (len(lines) + workers - 1) / max(workers, 1)
	var wg sync.WaitGroup
	for lo := 0; lo < len(lines); lo += chunk {
		hi := min(lo+chunk, len(lines))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = p.PreprocessLine(lines[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// matchMisses replays the matcher's miss path: MatchBatch over lines the
// line cache could not serve, on a fresh matcher over model. It reports
// wall time per line (MatchBatch runs on the parser's workers).
func matchMisses(r *run, model *core.Model, lines []string) error {
	if model == nil || len(lines) == 0 {
		return nil
	}
	m, err := core.New(core.Options{}).NewMatcher(model)
	if err != nil {
		return err
	}
	start := time.Now()
	m.MatchBatch(lines)
	r.set("core.match.miss_ns_per_line", ratio(float64(time.Since(start).Nanoseconds()), float64(len(lines))))
	return nil
}

// sealed is a run of records encoded into segments of segmentBytes raw
// bytes each, the way the compacting store seals its blocks.
type sealed struct {
	blobs          [][]byte
	encoded, raw   int64
	encode, decode time.Duration
	decodedRaw     int64
}

// seal encodes recs block by block, timing only the encode calls.
func seal(recs []segment.Record) (*sealed, error) {
	out := &sealed{}
	lo := 0
	var blockRaw int64
	for i := range recs {
		blockRaw += int64(len(recs[i].Raw))
		if blockRaw < segmentBytes && i+1 < len(recs) {
			continue
		}
		start := time.Now()
		data, st, err := segment.Encode(recs[lo:i+1], segment.CodecFlate)
		out.encode += time.Since(start)
		if err != nil {
			return nil, err
		}
		out.blobs = append(out.blobs, data)
		out.encoded += int64(len(data))
		out.raw += st.RawBytes
		lo, blockRaw = i+1, 0
	}
	return out, nil
}

// decodeAll opens and fully decodes every block, checking each returns
// the records it was built from.
func (s *sealed) decodeAll(recs []segment.Record) error {
	start := time.Now()
	n := 0
	for _, data := range s.blobs {
		rd, err := segment.Open(data)
		if err != nil {
			return err
		}
		back, err := rd.Records()
		if err != nil {
			return err
		}
		for _, rec := range back {
			if n >= len(recs) || rec.Raw != recs[n].Raw || rec.TemplateID != recs[n].TemplateID {
				return fmt.Errorf("segment round trip differs at record %d", n)
			}
			s.decodedRaw += int64(len(rec.Raw))
			n++
		}
	}
	s.decode = time.Since(start)
	if n != len(recs) {
		return fmt.Errorf("segment round trip returned %d records for %d", n, len(recs))
	}
	return nil
}

// segmentCosts seals recs, decodes them again, and reports raw megabytes
// per second each way plus the compression ratio.
func segmentCosts(r *run, recs []segment.Record) (*sealed, error) {
	s, err := seal(recs)
	if err != nil {
		return nil, err
	}
	if err := s.decodeAll(recs); err != nil {
		return nil, err
	}
	r.set("segment.encode.mb_per_s", float64(s.raw)/1e6/s.encode.Seconds())
	r.set("segment.decode.mb_per_s", float64(s.decodedRaw)/1e6/s.decode.Seconds())
	return s, nil
}

// parsedRecords lays out every dataset, with the template IDs Train
// assigned, as the records a store would seal: the parse output's
// stored form.
func parsedRecords(sets []*datagen.Dataset, results []*core.TrainResult) []segment.Record {
	var recs []segment.Record
	for d, ds := range sets {
		for i, line := range ds.Lines {
			off := int64(len(recs))
			recs = append(recs, segment.Record{Offset: off, Time: epoch.Add(time.Duration(off) * lineStep), Raw: line, TemplateID: results[d].Assign[i]})
		}
	}
	return recs
}
