package service

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestServicePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1700000000, 0)
	cfg := Config{
		Parser:        testConfig().Parser,
		TrainVolume:   1 << 30,
		TrainInterval: time.Hour,
		DataDir:       dir,
		Now:           func() time.Time { return now },
	}

	// First life: ingest, train, ingest more, shut down.
	s1 := New(cfg)
	if err := s1.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	lines := genLines(200, 1)
	if err := s1.Ingest("app", lines); err != nil {
		t.Fatal(err)
	}
	if err := s1.Train("app"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Ingest("app", genLines(100, 2)); err != nil {
		t.Fatal(err)
	}
	rowsBefore, err := s1.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same DataDir — records and model recover.
	s2 := New(cfg)
	if err := s2.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	stats, err := s2.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 300 {
		t.Fatalf("recovered %d records, want 300", stats.Records)
	}
	if stats.Templates == 0 || stats.Snapshots != 1 || stats.Trainings != 1 {
		t.Fatalf("model not recovered: %+v", stats)
	}
	rowsAfter, err := s2.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsAfter) != len(rowsBefore) {
		t.Errorf("query groups changed across restart: %d vs %d", len(rowsAfter), len(rowsBefore))
	}
	// The recovered matcher still matches known structures without
	// temporary insertion.
	if err := s2.Ingest("app", genLines(50, 3)); err != nil {
		t.Fatal(err)
	}
	stats2, _ := s2.TopicStats("app")
	if stats2.Records != 350 {
		t.Errorf("post-recovery ingest: %d records", stats2.Records)
	}
}

func TestServicePersistedFilesOnDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = dir
	cfg.TrainVolume = 50
	s := New(cfg)
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(80, 1)); err != nil {
		t.Fatal(err)
	}
	// Training is asynchronous; wait for the volume-triggered cycle to
	// persist its model snapshot before shutting down.
	waitTrainings(t, s, "app", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A data dir alone selects the compacting segment store: the hot
	// block persists as a write-ahead log beside the model snapshots.
	for _, want := range []string{
		filepath.Join(dir, "app", "records", "wal-000000.log"),
		filepath.Join(dir, "app", "models", "model-000000.bin"),
	} {
		if !fileExists(want) {
			t.Errorf("expected persisted file %s", want)
		}
	}
	if legacy, _ := filepath.Glob(filepath.Join(dir, "app", "records", "segment-*.log")); len(legacy) != 0 {
		t.Errorf("legacy disk-store files written: %v", legacy)
	}
}

func TestServiceRejectsPathTraversalTopicNames(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	s := New(cfg)
	for _, bad := range []string{"../evil", "a/b", `a\b`, "a b"} {
		if err := s.CreateTopic(bad); err == nil {
			t.Errorf("topic name %q accepted", bad)
		}
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}
