package main

import (
	"fmt"
	"time"

	"bytebrain/internal/core"
	"bytebrain/internal/datagen"
	"bytebrain/internal/metrics"
)

// parseLines is how many lines each mix dataset contributes to parse.
const parseLines = 50000

// gaThreshold is the query precision every ga metric is scored at.
const gaThreshold = 0.7

// gaFloor is the lowest ga each workload may report before its run
// fails. Each floor sits under the lowest value measured over ten seeds
// at the commit that added the benchmark (README.md has the numbers),
// so a change that loses accuracy fails the run rather than only moving
// a metric.
var gaFloor = map[string]float64{
	"parse":           0.75,
	"ingest-distinct": 0.1,
	"ingest-repeat":   0.85,
	"query-mixed":     0.15,
}

// runParse times offline Parser.Train over whole rounds of the six mix
// datasets: the paper's own path (preprocess, dedup, hash encoding,
// clustering) with no service or storage involved. One operation is one
// round: the Train time until all six datasets have a model.
func runParse(r *run) error {
	var sets []*datagen.Dataset
	var parser *core.Parser
	var heap0 uint64
	var setups []float64
	for i := 0; i < r.reps; i++ {
		start := time.Now()
		sets = sets[:0]
		for d, name := range mixNames {
			ds, err := loghub2(name, parseLines, datasetSeed(r.seed, d, 0))
			if err != nil {
				return err
			}
			sets = append(sets, ds)
		}
		parser = core.New(core.Options{})
		heap0 = heapBytes()
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", quantile(setups, 0.5))

	type perSet struct {
		lines int
		busy  time.Duration
		ga    float64
	}
	per := make([]perSet, len(sets))
	var lat []float64 // per round: Train time over all six datasets, ms
	var calls int
	var busy time.Duration
	var lines int
	var kept []*core.TrainResult // the last round's models, as a user would keep them
	var layers parseLayers
	alloc0, gc0 := memCounters()
	deadline := time.Now().Add(time.Duration(r.seconds) * time.Second)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		roundID, roundStart := r.tr.id(), time.Now()
		var roundBusy time.Duration
		kept = kept[:0]
		for d, ds := range sets {
			start := time.Now()
			res, err := parser.Train(ds.Lines)
			d0 := time.Since(start)
			r.op(err == nil)
			if err != nil {
				return fmt.Errorf("train %s: %w", ds.Name, err)
			}
			r.tr.add(roundID, int64(d), "core.train", start, start.Add(d0))
			calls++
			roundBusy += d0
			busy += d0
			lines += len(ds.Lines)
			per[d].lines += len(ds.Lines)
			per[d].busy += d0
			if round == 0 {
				ga, err := trainGA(res, ds.Truth)
				if err != nil {
					return err
				}
				per[d].ga = ga
				if r.tr != nil {
					if err := layers.replay(r, parser, ds.Lines, d0, roundID, int64(d)); err != nil {
						return err
					}
				}
			}
			kept = append(kept, res)
		}
		r.tr.record(roundID, 0, 0, "parse.round", roundStart, time.Now())
		lat = append(lat, ms(roundBusy))
	}
	alloc1, gc1 := memCounters()
	r.set("live_heap_mb", float64(heapBytes()-heap0)/1e6)

	var gaSum float64
	var rawBytes int64
	for d, ds := range sets {
		r.set("parse."+ds.Name+".logs_per_s", float64(per[d].lines)/per[d].busy.Seconds())
		r.set("parse."+ds.Name+".ga", per[d].ga)
		gaSum += per[d].ga
		rawBytes += ds.Bytes
	}
	ga := gaSum / float64(len(sets))
	r.set("logs_per_s", float64(lines)/busy.Seconds())
	r.set("op_p50_ms", quantile(lat, 0.5))
	r.set("op_p90_ms", quantile(lat, 0.9))
	r.set("ga", ga)
	r.set("runtime.alloc_bytes_per_line", float64(alloc1-alloc0)/float64(lines))
	r.set("runtime.gc_cycles", float64(gc1-gc0))
	var all []string
	for _, ds := range sets {
		all = append(all, ds.Lines...)
	}
	r.set("workload.unique_line_ratio", (&stream{lines: all}).uniqueRatio(0, len(all)))
	r.note("inputs: %d datasets x ~%d lines (%d lines, %d raw bytes), %d Train calls in %d rounds", len(sets), parseLines, len(all), rawBytes, calls, len(lat))
	r.note("parse_logs_per_s %.6g 1/s", float64(lines)/busy.Seconds())

	stored, err := segmentCosts(r, parsedRecords(sets, kept))
	if err != nil {
		return err
	}
	r.set("stored_bytes_per_raw_byte", ratio(float64(stored.encoded), float64(rawBytes)))
	r.set("segment.compression_ratio", ratio(float64(stored.encoded), float64(stored.raw)))
	if r.tr != nil {
		layers.report(r)
	}
	r.verify("ga_floor", ga >= gaFloor[r.workload], "ga %.4f, floor %.2f", ga, gaFloor[r.workload])
	return nil
}

// trainGA scores Train's own assignments, rolled up at gaThreshold.
func trainGA(res *core.TrainResult, truth []int) (float64, error) {
	pred := make([]int, len(res.Assign))
	for i, id := range res.Assign {
		n, err := res.Model.TemplateAt(id, gaThreshold)
		if err != nil {
			return 0, err
		}
		pred[i] = int(n.ID)
	}
	return metrics.GroupingAccuracy(pred, truth)
}
