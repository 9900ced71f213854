package main

import (
	"fmt"
	"math/rand"
	"time"

	"bytebrain/internal/datagen"
)

// mixNames is the LogHub-2.0 mix the parse, ingest-distinct and
// query-mixed workloads draw from: large corpora of different shapes
// (block ops, RAS events, Spark stages, sshd sessions, syslog, HPC).
var mixNames = []string{"HDFS", "BGL", "Spark", "OpenSSH", "Thunderbird", "HPC"}

// loghub2 generates about n lines of one LogHub-2.0 dataset.
func loghub2(name string, n int, seed int64) (*datagen.Dataset, error) {
	full := datagen.FullLogHub2Lines(name)
	if full == 0 {
		return nil, fmt.Errorf("no LogHub-2.0 dataset %q", name)
	}
	return datagen.LogHub2(name, float64(n)/float64(full), seed)
}

// datasetSeed derives a per-dataset, per-pass seed from the run seed.
func datasetSeed(seed int64, dataset, pass int) int64 {
	return seed*1_000_003 + int64(pass)*7919 + int64(dataset)
}

// stream is a log stream with a ground-truth template label per line.
// Labels of different datasets never collide.
type stream struct {
	lines []string
	truth []int
	// more, when set, appends one more pass of input; the stream grows
	// on demand so a faster program never runs out of input.
	more    func(s *stream, pass int) error
	passes  int
	genTime time.Duration // time spent generating passes after the first
}

// ensure grows the stream to at least n lines.
func (s *stream) ensure(n int) error {
	for len(s.lines) < n {
		if s.more == nil {
			return fmt.Errorf("stream has %d lines, %d needed", len(s.lines), n)
		}
		start := time.Now()
		if err := s.more(s, s.passes); err != nil {
			return err
		}
		s.passes++
		if s.passes > 1 {
			s.genTime += time.Since(start)
		}
	}
	return nil
}

// rawBytes sums the line lengths of lines [lo, hi).
func (s *stream) rawBytes(lo, hi int) int64 {
	var n int64
	for _, l := range s.lines[lo:hi] {
		n += int64(len(l))
	}
	return n
}

// uniqueRatio is the share of lines in [lo, hi) that are distinct.
func (s *stream) uniqueRatio(lo, hi int) float64 {
	seen := make(map[string]struct{}, hi-lo)
	for _, l := range s.lines[lo:hi] {
		seen[l] = struct{}{}
	}
	return ratio(float64(len(seen)), float64(hi-lo))
}

// mixStream interleaves per lines of every mix dataset per pass into
// one stream, in a seeded random order that keeps each dataset's own
// line order.
func mixStream(seed int64, per int) (*stream, error) {
	s := &stream{more: func(s *stream, pass int) error {
		sets := make([]*datagen.Dataset, len(mixNames))
		left := 0
		for i, name := range mixNames {
			ds, err := loghub2(name, per, datasetSeed(seed, i, pass))
			if err != nil {
				return err
			}
			sets[i] = ds
			left += len(ds.Lines)
		}
		rng := rand.New(rand.NewSource(datasetSeed(seed, -1, pass)))
		next := make([]int, len(sets))
		for ; left > 0; left-- {
			// Pick a dataset with probability proportional to what it
			// has left, so the mix stays even along the stream.
			k := rng.Intn(left)
			i := 0
			for ; k >= len(sets[i].Lines)-next[i]; i++ {
				k -= len(sets[i].Lines) - next[i]
			}
			s.lines = append(s.lines, sets[i].Lines[next[i]])
			s.truth = append(s.truth, i<<24|sets[i].Truth[next[i]])
			next[i]++
		}
		return nil
	}}
	return s, s.ensure(1)
}

// repeatStream replays the 2 000-line Zookeeper LogHub cut.
func repeatStream(seed int64) (*stream, error) {
	ds, err := datagen.LogHub("Zookeeper", seed)
	if err != nil {
		return nil, err
	}
	s := &stream{more: func(s *stream, _ int) error {
		s.lines = append(s.lines, ds.Lines...)
		s.truth = append(s.truth, ds.Truth...)
		return nil
	}}
	return s, s.ensure(1)
}
