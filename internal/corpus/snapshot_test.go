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
// policy's compatibility claim: a checkpoint written by a stock
// gzip.Writer at its default level — what every collector wrote before
// the pooled BestSpeed codec — loads through the pooled reader to
// exactly the state that was saved, the same state today's writer
// round-trips, from a file whose bytes differ. A missing file is a cold
// start and a file cut short an error, never a silently empty state.
func TestDefaultLevelFilesStillLoad(t *testing.T) {
	dir := t.TempDir()
	if snap, recs, keys, err := ReadCheckpointFile(filepath.Join(dir, "none.snap")); err != nil || snap != nil || recs != nil || keys != nil {
		t.Fatalf("missing file: got %v, %v, %v, %v; want all nil", snap, recs, keys, err)
	}
	recs := make([][]byte, 300)
	keys := make([]uint64, len(recs))
	for i := range recs {
		r := &report.Report{Failed: i%3 == 0, ObservedSites: []int32{int32(i % 3)}, TruePreds: []int32{int32(i % 5)}}
		recs[i], keys[i] = report.AppendRecord(nil, r), KeyHash("client")+uint64(i)
	}
	snap := sampleSnap()
	snap.NumF, snap.NumS, snap.Logged = 100, 200, 300
	snap.WALSeq, snap.WALIslands = 41, []uint64{43, 47}

	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := WriteMergeSegmentRecords(gz, snap, 3, 5, recs, keys); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	oldCkpt := filepath.Join(dir, "old.snap")
	if err := os.WriteFile(oldCkpt, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	newCkpt := filepath.Join(dir, "new.snap")
	if err := WriteCheckpointFileRecords(newCkpt, snap, 3, 5, recs, keys); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{oldCkpt, newCkpt} {
		gotSnap, gotRecs, gotKeys, err := ReadCheckpointFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !reflect.DeepEqual(gotSnap, snap) || !reflect.DeepEqual(gotRecs, recs) || !reflect.DeepEqual(gotKeys, keys) {
			t.Errorf("%s: loaded state differs from what was saved", path)
		}
	}

	// The two levels really are different encodings of one stream;
	// otherwise this test compares a file with itself.
	b, _ := os.ReadFile(newCkpt)
	if bytes.Equal(buf.Bytes(), b) {
		t.Errorf("%s and %s are byte-identical: the levels no longer differ", oldCkpt, newCkpt)
	}
	if err := os.WriteFile(newCkpt, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadCheckpointFile(newCkpt); err == nil {
		t.Error("truncated checkpoint: expected error")
	}
}
