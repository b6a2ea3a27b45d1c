package corpus

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cbi/internal/report"
)

func sampleSnap() *AggSnapshot {
	return &AggSnapshot{
		NumSites:    3,
		NumPreds:    5,
		Fingerprint: 0xdeadbeef,
		NumF:        7,
		NumS:        13,
		FobsSite:    []int64{1, 0, 7},
		SobsSite:    []int64{13, 2, 0},
		FPred:       []int64{0, 1, 2, 3, 4},
		SPred:       []int64{5, 0, 0, 9, 13},
	}
}

func TestAggSnapshotRoundTrip(t *testing.T) {
	snap := sampleSnap()
	var buf bytes.Buffer
	if err := SaveAggSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAggSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", snap, got)
	}
}

func TestAggSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "collector.snap")

	// Missing file is a cold start, not an error.
	got, err := ReadAggSnapshotFile(path)
	if err != nil || got != nil {
		t.Fatalf("missing file: got %+v, %v; want nil, nil", got, err)
	}

	snap := sampleSnap()
	if err := WriteAggSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAggSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("file round trip mismatch: %+v vs %+v", snap, got)
	}

	// Overwrite with new counts; rename must replace atomically.
	snap.NumF = 100
	snap.FobsSite[0] = 42
	if err := WriteAggSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAggSnapshotFile(path)
	if err != nil || got.NumF != 100 || got.FobsSite[0] != 42 {
		t.Fatalf("overwrite: got %+v, %v", got, err)
	}
}

func TestRunLogFileRoundTrip(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "collector.snap")
	path := RunLogPath(snapPath)
	if path != snapPath+".runs" {
		t.Fatalf("RunLogPath = %q", path)
	}

	// Missing file is a cold start (or a pre-run-log snapshot), not an
	// error.
	got, err := ReadRunLogFile(path)
	if err != nil || got != nil {
		t.Fatalf("missing file: got %+v, %v; want nil, nil", got, err)
	}

	set := &report.Set{
		NumSites: 4,
		NumPreds: 9,
		Reports: []*report.Report{
			{Failed: true, ObservedSites: []int32{0, 2}, TruePreds: []int32{1, 5, 8}},
			{Failed: false, ObservedSites: []int32{1, 2, 3}, TruePreds: []int32{3}},
			{Failed: false},
		},
	}
	if err := WriteRunLogFile(path, set); err != nil {
		t.Fatal(err)
	}
	got, err = ReadRunLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", set, got)
	}

	// Overwrite with a shorter window; rename must replace atomically.
	set.Reports = set.Reports[1:]
	if err := WriteRunLogFile(path, set); err != nil {
		t.Fatal(err)
	}
	got, err = ReadRunLogFile(path)
	if err != nil || len(got.Reports) != 2 {
		t.Fatalf("overwrite: got %+v, %v", got, err)
	}

	// Corrupt bytes (not gzip, truncated gzip) are errors, not silent
	// empty windows.
	if err := os.WriteFile(path, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRunLogFile(path); err == nil {
		t.Error("non-gzip run log: expected error")
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	set.MarshalBinary(gz)
	gz.Close()
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRunLogFile(path); err == nil {
		t.Error("truncated run log: expected error")
	}
}

func TestAggSnapshotErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "cbi-aggsnap nope\n",
		"bad version":   "cbi-aggsnap 2 1 1 0 0 0\nFOBS 0\nSOBS 0\nFPRED 0\nSPRED 0\n",
		"missing sec":   "cbi-aggsnap 1 1 1 0 0 0\nFOBS 0\n",
		"wrong tag":     "cbi-aggsnap 1 1 1 0 0 0\nXOBS 0\nSOBS 0\nFPRED 0\nSPRED 0\n",
		"short section": "cbi-aggsnap 1 2 1 0 0 0\nFOBS 0\nSOBS 0 0\nFPRED 0\nSPRED 0\n",
		"bad int":       "cbi-aggsnap 1 1 1 0 0 0\nFOBS x\nSOBS 0\nFPRED 0\nSPRED 0\n",
		"negative dims": "cbi-aggsnap 1 -1 1 0 0 0\nFOBS\nSOBS\nFPRED 0\nSPRED 0\n",
	}
	for name, text := range cases {
		if _, err := LoadAggSnapshot(strings.NewReader(text)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}

	// Save refuses inconsistent dimensions.
	snap := sampleSnap()
	snap.FPred = snap.FPred[:2]
	if err := SaveAggSnapshot(&bytes.Buffer{}, snap); err == nil {
		t.Error("inconsistent save: expected error")
	}
}

// TestDefaultLevelFilesStillLoad is the at-rest half of the compression
// policy's compatibility claim: a checkpoint and a .runs file written
// by a stock gzip.Writer at its default level — what every collector
// wrote before the pooled BestSpeed codec — load through the pooled
// reader to exactly the state that was saved, the same state today's
// writers round-trip, from files whose bytes differ.
func TestDefaultLevelFilesStillLoad(t *testing.T) {
	dir := t.TempDir()
	stdGzipFile := func(name string, fill func(*gzip.Writer) error) string {
		t.Helper()
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		if err := fill(gz); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := &report.Set{NumSites: 3, NumPreds: 5}
	for i := 0; i < 300; i++ {
		set.Reports = append(set.Reports, &report.Report{
			Failed: i%3 == 0, ObservedSites: []int32{int32(i % 3)}, TruePreds: []int32{int32(i % 5)}})
	}
	recs := make([][]byte, len(set.Reports))
	keys := make([]uint64, len(set.Reports))
	for i, r := range set.Reports {
		recs[i], keys[i] = report.AppendRecord(nil, r), KeyHash("client")+uint64(i)
	}
	snap := sampleSnap()
	snap.NumF, snap.NumS, snap.Logged = 100, 200, 300
	snap.WALSeq, snap.WALIslands = 41, []uint64{43, 47}

	oldCkpt := stdGzipFile("old.snap", func(gz *gzip.Writer) error { return WriteMergeSegmentKeyed(gz, snap, set, keys) })
	newCkpt := filepath.Join(dir, "new.snap")
	if err := WriteCheckpointFileRecords(newCkpt, snap, set.NumSites, set.NumPreds, recs, keys); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{oldCkpt, newCkpt} {
		gotSnap, gotSet, gotKeys, checkpoint, err := ReadStateFileKeyed(path)
		if err != nil || !checkpoint {
			t.Fatalf("%s: checkpoint=%v, err %v", path, checkpoint, err)
		}
		if !reflect.DeepEqual(gotSnap, snap) || !reflect.DeepEqual(gotSet, set) || !reflect.DeepEqual(gotKeys, keys) {
			t.Errorf("%s: loaded state differs from what was saved", path)
		}
	}

	oldRuns := stdGzipFile("old.snap.runs", func(gz *gzip.Writer) error { return set.MarshalBinary(gz) })
	newRuns := filepath.Join(dir, "new.snap.runs")
	if err := WriteRunLogFileRecords(newRuns, set.NumSites, set.NumPreds, recs); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{oldRuns, newRuns} {
		got, err := ReadRunLogFile(path)
		if err != nil || !reflect.DeepEqual(got, set) {
			t.Errorf("%s: loaded %+v, err %v", path, got, err)
		}
	}

	// The two levels really are different encodings of one stream;
	// otherwise this test compares a file with itself.
	for _, pair := range [][2]string{{oldCkpt, newCkpt}, {oldRuns, newRuns}} {
		a, _ := os.ReadFile(pair[0])
		b, _ := os.ReadFile(pair[1])
		if bytes.Equal(a, b) {
			t.Errorf("%s and %s are byte-identical: the levels no longer differ", pair[0], pair[1])
		}
	}
}
