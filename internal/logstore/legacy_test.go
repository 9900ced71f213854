package logstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bytebrain/internal/segment"
)

// legacyRecords is the record count of testdata/disktopic.
const legacyRecords = 120

// legacyRecord is record i of testdata/disktopic as its writer stored it.
func legacyRecord(i int) Record {
	return Record{
		Offset:     int64(i),
		Time:       time.Unix(1700000000, 0).Add(time.Duration(i) * time.Millisecond),
		Raw:        fmt.Sprintf("legacy record %d user u%d took %dms", i, i%7, (i*37)%1000),
		TemplateID: uint64(i%5 + 1),
	}
}

// checkLegacyRecords asserts every fixture record reads back exactly.
func checkLegacyRecords(t *testing.T, s Store) {
	t.Helper()
	if s.Len() != legacyRecords {
		t.Fatalf("Len = %d, want %d", s.Len(), legacyRecords)
	}
	for i := 0; i < legacyRecords; i++ {
		got, err := s.Get(int64(i))
		want := legacyRecord(i)
		if err != nil || got.Offset != want.Offset || !got.Time.Equal(want.Time) ||
			got.Raw != want.Raw || got.TemplateID != want.TemplateID {
			t.Fatalf("Get(%d) = %+v, %v; want %+v", i, got, err, want)
		}
	}
}

// TestLegacyDiskTopicAdoption: testdata/disktopic is a data dir written
// by the retired plain disk store — legacyRecords records, one Append
// each, rotated at 1 KiB into seven segment-NNNNNN.log files. Those files
// use the WAL record format byte for byte, so renaming segment- to wal-
// adopts them. Recovery must refuse the directory as-is (naming that
// rename) and, once renamed, read back every record's offset, time, raw
// text and template ID, seal the adopted blocks, and reopen to the same
// records.
func TestLegacyDiskTopicAdoption(t *testing.T) {
	src := filepath.Join("testdata", "disktopic")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("fixture has %d files, want at least 3 rotated ones", len(entries))
	}
	dir := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := CompactConfig{Dir: dir, Codec: segment.CodecFlate}

	if _, err := OpenCompacting("t", cfg); err == nil || !strings.Contains(err.Error(), "rename every") {
		t.Fatalf("open of an unrenamed legacy dir = %v, want a refusal naming the rename", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, legacyPrefix) || !strings.HasSuffix(name, walSuffix) {
			t.Fatalf("unexpected fixture file %s", name)
		}
		adopted := walPrefix + strings.TrimPrefix(name, legacyPrefix)
		if err := os.Rename(filepath.Join(dir, name), filepath.Join(dir, adopted)); err != nil {
			t.Fatal(err)
		}
	}

	s, err := OpenCompacting("t", cfg)
	if err != nil {
		t.Fatalf("open after rename: %v", err)
	}
	checkLegacyRecords(t, s)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	if err := s.SealError(); err != nil {
		t.Fatal(err)
	}
	if st := s.SegmentStats(); st.Segments != len(entries) || st.SealedRecords != legacyRecords {
		t.Fatalf("after seal: %+v, want %d segments holding every record", st, len(entries))
	}
	checkLegacyRecords(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenCompacting("t", cfg)
	if err != nil {
		t.Fatalf("reopen after seal: %v", err)
	}
	defer s2.Close()
	checkLegacyRecords(t, s2)
	if st := s2.SegmentStats(); st.Segments != len(entries) {
		t.Fatalf("reopened %d segments, want %d", st.Segments, len(entries))
	}
}
