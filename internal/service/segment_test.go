package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bytebrain/internal/logstore"
)

func segmentConfig(dataDir string) Config {
	return Config{
		TrainVolume:  1 << 30,
		SegmentBytes: 8 << 10,
		SegmentCodec: "flate",
		DataDir:      dataDir,
		Now:          func() time.Time { return time.Unix(1700000000, 0) },
	}
}

func segLines(n, start int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("session %d opened for user u%d from 10.0.0.%d", start+i, (start+i)%40, (start+i)%250)
	}
	return lines
}

// TestServiceSegmentStore runs the full service path on the compacting
// store: ingest, train, query, forced compaction, compression stats.
func TestServiceSegmentStore(t *testing.T) {
	svc := New(segmentConfig(""))
	defer svc.Close()
	if err := svc.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest("app", segLines(1500, 0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Train("app"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest("app", segLines(1500, 1500)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Compact("app"); err != nil {
		t.Fatal(err)
	}
	stats, err := svc.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3000 {
		t.Fatalf("Records = %d", stats.Records)
	}
	if stats.Segments == 0 || stats.SegmentRecords != 3000 {
		t.Fatalf("segment stats: %+v", stats)
	}
	if stats.SegmentRatio <= 0 || stats.SegmentRatio >= 1 {
		t.Fatalf("SegmentRatio = %v", stats.SegmentRatio)
	}
	if stats.SegmentCodec != "flate" {
		t.Fatalf("SegmentCodec = %q", stats.SegmentCodec)
	}

	// Query still groups everything (records live in sealed segments).
	rows, err := svc.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rows {
		total += r.Count
	}
	if total != 3000 {
		t.Fatalf("query covered %d records, want 3000", total)
	}
}

// TestServiceSegmentStorePersistence restarts a persistent segment-store
// service and checks records and model survive.
func TestServiceSegmentStorePersistence(t *testing.T) {
	dir := t.TempDir()
	svc := New(segmentConfig(dir))
	if err := svc.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest("app", segLines(1200, 0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Train("app"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Compact("app"); err != nil {
		t.Fatal(err)
	}
	before, err := svc.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := New(segmentConfig(dir))
	defer svc2.Close()
	if err := svc2.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	after, err := svc2.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if after.Records != before.Records {
		t.Fatalf("recovered %d records, want %d", after.Records, before.Records)
	}
	if after.Segments != before.Segments {
		t.Fatalf("recovered %d segments, want %d", after.Segments, before.Segments)
	}
	if after.Templates == 0 {
		t.Fatal("model snapshot not recovered")
	}
	// The recovered matcher keeps assigning templates to new ingests.
	if err := svc2.Ingest("app", segLines(10, 1200)); err != nil {
		t.Fatal(err)
	}
	store, err := svc2.Store("app")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := store.Get(1205)
	if err != nil || rec.TemplateID == 0 {
		t.Fatalf("post-recovery record %+v, %v (want nonzero template)", rec, err)
	}
}

// TestDefaultConfigSealsBounded: a Config{} topic (no data dir, default
// block size and codec) runs on the compacting store, seals full blocks
// with flate into in-memory segments, and keeps fewer than one block's
// records hot, so memory stays bounded by the block size. /stats and
// /metrics report the segment counters.
func TestDefaultConfigSealsBounded(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	store, err := svc.Store("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.(*logstore.CompactingStore); !ok {
		t.Fatalf("default store is %T, want *logstore.CompactingStore", store)
	}
	// More than two default 4 MiB blocks of raw lines.
	const blockBytes = 4 << 20
	var raw int64
	for start := 0; raw <= 2*blockBytes+blockBytes/2; start += 5000 {
		lines := make([]string, 5000)
		for i := range lines {
			n := start + i
			lines[i] = fmt.Sprintf("session %d opened for user u%d from 10.0.0.%d agent curl/8.%d request req-%08d", n, n%40, n%250, n%9, n)
			raw += int64(len(lines[i]))
		}
		if err := svc.Ingest("app", lines); err != nil {
			t.Fatal(err)
		}
	}
	store.WaitIdle()
	sst := store.SegmentStats()
	if sst.Segments < 2 || sst.Codec != "flate" {
		t.Fatalf("SegmentStats = %+v, want >= 2 flate segments", sst)
	}
	if perBlock := sst.SealedRecords / sst.Segments; sst.HotRecords >= perBlock {
		t.Fatalf("%d hot records, want fewer than one block's %d", sst.HotRecords, perBlock)
	}
	if err := svc.Compact("app"); err != nil {
		t.Fatalf("Compact on a default topic: %v", err)
	}
	if err := svc.Compact("ghost"); err == nil {
		t.Fatal("Compact on unknown topic should fail")
	}

	h := svc.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topics/app/stats", nil))
	var stats Stats
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Segments < 3 || stats.SegmentCodec != "flate" || stats.SegmentRecords != stats.Records || stats.SegmentRatio <= 0 {
		t.Fatalf("/stats after Compact: %+v", stats)
	}
	_, vals := scrape(t, h)
	if got := vals[`bb_topic_segments{topic="app"}`]; got != float64(stats.Segments) {
		t.Fatalf("bb_topic_segments = %v, want %d", got, stats.Segments)
	}
}

func TestBadSegmentCodecRejected(t *testing.T) {
	svc := New(Config{SegmentBytes: 1 << 20, SegmentCodec: "zstd"})
	defer svc.Close()
	if err := svc.CreateTopic("app"); err == nil {
		t.Fatal("zstd is not a codec and must be rejected")
	}
	// Every topic seals, so a memory-mode topic validates the codec too.
	svcMem := New(Config{SegmentCodec: "zstd"})
	defer svcMem.Close()
	if err := svcMem.CreateTopic("app"); err == nil {
		t.Fatal("a memory-mode topic must reject an unknown codec")
	}
	// The default codec is flate whatever the other knobs.
	svcDefault := New(Config{})
	defer svcDefault.Close()
	if err := svcDefault.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if stats, err := svcDefault.TopicStats("app"); err != nil || stats.SegmentCodec != "flate" {
		t.Fatalf("Config{} topic codec = %q, %v; want flate", stats.SegmentCodec, err)
	}
	// A data dir alone validates the codec as well.
	svcDir := New(Config{DataDir: t.TempDir(), SegmentCodec: "zstd"})
	defer svcDir.Close()
	if err := svcDir.CreateTopic("app"); err == nil {
		t.Fatal("a data-dir topic must reject an unknown codec")
	}
	svc2 := New(Config{SegmentBytes: 1 << 20, SegmentCodec: "bogus"})
	defer svc2.Close()
	if err := svc2.CreateTopic("app"); err == nil {
		t.Fatal("unknown codec must be rejected")
	}
}

// TestDataDirAloneUsesSegmentStore: a data dir without SegmentBytes runs
// on the compacting segment store at its default block size, seals with
// the default flate codec, and recovers every record after a restart.
func TestDataDirAloneUsesSegmentStore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		TrainVolume: 1 << 30,
		DataDir:     dir,
		Now:         func() time.Time { return time.Unix(1700000000, 0) },
	}
	svc := New(cfg)
	if err := svc.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	store, err := svc.Store("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.(*logstore.CompactingStore); !ok {
		t.Fatalf("data-dir store is %T, want *logstore.CompactingStore", store)
	}
	if err := svc.Ingest("app", segLines(500, 0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Compact("app"); err != nil {
		t.Fatalf("Compact on a data-dir topic: %v", err)
	}
	stats, err := svc.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentCodec != "flate" || stats.Segments != 1 || stats.SegmentRecords != 500 {
		t.Fatalf("segment stats after Compact: %+v", stats)
	}
	if err := svc.Ingest("app", segLines(200, 500)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := New(cfg)
	defer svc2.Close()
	if err := svc2.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	want := segLines(700, 0)
	recs, err := svc2.Records("app", func() []int64 {
		offs := make([]int64, len(want))
		for i := range offs {
			offs[i] = int64(i)
		}
		return offs
	}())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Raw != want[i] {
			t.Fatalf("record %d after restart = %q, want %q", i, r.Raw, want[i])
		}
	}
	if stats, _ := svc2.TopicStats("app"); stats.Records != 700 || stats.Segments != 1 {
		t.Fatalf("after restart: %d records, %d segments; want 700, 1", stats.Records, stats.Segments)
	}
}
