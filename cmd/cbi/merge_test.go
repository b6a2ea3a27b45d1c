package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"cbi/internal/collector"
	"cbi/internal/corpus"
	"cbi/internal/report"
)

const mergeSites, mergePreds = 4, 8

// mergeRuns returns deterministic runs lo..hi-1: run i observes one
// site with one predicate true there, and fails when that predicate is
// 3 (the planted cause) or on every seventh run (noise).
func mergeRuns(lo, hi int) []*report.Report {
	var runs []*report.Report
	for i := lo; i < hi; i++ {
		p := int32(i % mergePreds)
		runs = append(runs, &report.Report{Failed: p == 3 || i%7 == 0, ObservedSites: []int32{p / 2}, TruePreds: []int32{p}})
	}
	return runs
}

// mergeCollector boots a collector on statePath ("" = no state file; a
// WAL beside it when wal is set) and feeds it runs as one batch.
func mergeCollector(t *testing.T, statePath string, wal bool, runs []*report.Report) *collector.Server {
	t.Helper()
	cfg := collector.Config{NumSites: mergeSites, NumPreds: mergePreds,
		SiteOf: []int32{0, 0, 1, 1, 2, 2, 3, 3}, Fingerprint: 77, SnapshotPath: statePath}
	if wal {
		cfg.WALPath = statePath + ".wal"
	}
	srv, err := collector.New(cfg)
	if err != nil {
		t.Fatalf("booting on %q: %v", statePath, err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.IngestBatch("batch", runs); err != nil {
		t.Fatal(err)
	}
	return srv
}

// stateOf renders everything a merge must preserve — run counts, the
// ranking and the cause-isolation view — as one comparable string.
func stateOf(srv *collector.Server) string {
	st := srv.StatsNow()
	out := fmt.Sprintf("%d runs, %d failing, %d logged", st.Runs, st.Failing, st.RunLogRuns)
	for _, path := range []string{"/v1/scores?k=0", "/v1/predictors?k=0&affinity=2"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		out += fmt.Sprintf("\n%d %s", rec.Code, rec.Body)
	}
	return out
}

// checkpoint is the state file of a WAL-enabled collector that ingested
// runs lo..hi-1 over HTTP from one client, so it carries a nonzero WAL
// watermark and every run that client's routing key.
func checkpoint(lo, hi int) func(*testing.T) string {
	return func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "shard.snap")
		srv := mergeCollector(t, path, true, nil)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := collector.NewClient(ts.URL, mergeSites, mergePreds, collector.WithClientID(fmt.Sprintf("client-%d", lo)))
		set := &report.Set{NumSites: mergeSites, NumPreds: mergePreds, Reports: mergeRuns(lo, hi)}
		if err := client.SubmitSet(context.Background(), set); err != nil {
			t.Fatal(err)
		}
		for srv.StatsNow().ReportsApplied < int64(hi-lo) {
			time.Sleep(time.Millisecond)
		}
		if err := srv.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		return path
	}
}

// legacy is the pre-checkpoint state of runs lo..hi-1: the counters as
// plain text — after doctor, when set, has edited them the way a torn
// write would; as a version-1 file (no LOGGED line) when v1 — and,
// unless noSidecar, the window as a gzip'd report set at <path>.runs.
func legacy(lo, hi int, v1, noSidecar bool, doctor func(*corpus.AggSnapshot)) func(*testing.T) string {
	return func(t *testing.T) string {
		set := &report.Set{NumSites: mergeSites, NumPreds: mergePreds, Reports: mergeRuns(lo, hi)}
		snap := corpus.NewAggSnapshot(mergeSites, mergePreds)
		snap.Fingerprint, snap.Logged = 77, int64(hi-lo)
		for _, r := range set.Reports {
			snap.ApplyReport(r, +1)
		}
		if doctor != nil {
			doctor(snap)
		}
		var buf bytes.Buffer
		if err := corpus.SaveAggSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		if v1 {
			text = strings.Replace(text, "cbi-aggsnap 3 ", "cbi-aggsnap 1 ", 1)
			text = text[:strings.Index(text, "LOGGED ")]
		}
		path := filepath.Join(t.TempDir(), "legacy.snap")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if !noSidecar {
			buf.Reset()
			if err := report.Gzip(&buf, set.MarshalBinary); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path+".runs", buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
}

// TestMerge: cbi merge reads checkpoints and legacy snapshot + .runs
// pairs and writes one checkpoint (or pushes each input into a live
// peer) equal to a collector simply fed the same runs. A legacy pair is
// torn when LOGGED (a version-1 file's run total) is not the log's
// length; its counters are then rebuilt from the log. Counters that
// exceed the log with LOGGED agreeing (merged-in runs from beyond a
// peer's window), or that have no log at all, are kept as they are. A
// pushed checkpoint's runs keep their routing keys on the receiver, as
// they do in a merged file, so a later resize can still move them.
func TestMerge(t *testing.T) {
	drift := func(snap *corpus.AggSnapshot) { // what a torn write leaves
		snap.NumF += 7
		snap.FPred[3] += 100
		snap.SobsSite[0] += 13
	}
	type inputs = []func(*testing.T) string
	for name, tc := range map[string]struct {
		in               inputs
		pushOn           int   // -push into a collector holding runs 0..pushOn-1
		wantHi           int   // the result equals a collector fed runs 0..wantHi-1,
		wantAll, wantLog int64 // or (counters beyond the log) has these totals
	}{
		"checkpoints + legacy pair": {in: inputs{checkpoint(0, 40), checkpoint(40, 70), legacy(70, 90, false, false, nil)}, wantHi: 90},
		"push checkpoint":           {in: inputs{checkpoint(40, 70)}, pushOn: 40, wantHi: 70},
		"legacy torn":               {in: inputs{legacy(0, 60, false, false, func(s *corpus.AggSnapshot) { drift(s); s.Logged -= 3 })}, wantHi: 60},
		"legacy v1":                 {in: inputs{legacy(0, 60, true, false, nil)}, wantHi: 60},
		"legacy v1 torn":            {in: inputs{legacy(0, 60, true, false, drift)}, wantHi: 60},
		"legacy beyond window":      {in: inputs{legacy(0, 60, false, false, func(s *corpus.AggSnapshot) { s.NumS += 5 })}, wantAll: 65, wantLog: 60},
		"legacy without sidecar":    {in: inputs{legacy(0, 60, false, true, nil)}, wantAll: 60, wantLog: 0},
	} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "merged.snap")
			args := []string{"-o", out}
			var got *collector.Server
			if tc.pushOn > 0 {
				got = mergeCollector(t, out, false, mergeRuns(0, tc.pushOn))
				ts := httptest.NewServer(got.Handler())
				defer ts.Close()
				args = []string{"-push", ts.URL}
			}
			for _, in := range tc.in {
				args = append(args, in(t))
			}
			if err := cmdMerge(args); err != nil {
				t.Fatal(err)
			}
			if tc.pushOn > 0 {
				_, _, srcKeys, err := corpus.ReadCheckpointFile(args[len(args)-1])
				if err != nil || len(srcKeys) == 0 {
					t.Fatalf("pushed checkpoint: %d keys, err %v; want keyed runs", len(srcKeys), err)
				}
				if err := got.SnapshotNow(); err != nil {
					t.Fatal(err)
				}
				_, _, keys, err := corpus.ReadCheckpointFile(out)
				if err != nil || len(keys) < len(srcKeys) || !slices.Equal(keys[len(keys)-len(srcKeys):], srcKeys) {
					t.Fatalf("receiver's checkpoint keys %v (err %v) do not end with the pushed keys %v", keys, err, srcKeys)
				}
			}
			if got == nil {
				// A merged file anchors no log, whatever its inputs did.
				if snap, _, _, err := corpus.ReadCheckpointFile(out); err != nil || snap.WALSeq != 0 || snap.WALIslands != nil {
					t.Fatalf("merged checkpoint: err %v, WAL coverage %d %v, want none", err, snap.WALSeq, snap.WALIslands)
				}
				got = mergeCollector(t, out, false, nil)
			}
			if tc.wantHi == 0 {
				if st := got.StatsNow(); st.Runs != tc.wantAll || int64(st.RunLogRuns) != tc.wantLog {
					t.Fatalf("%d runs / %d logged, want %d / %d", st.Runs, st.RunLogRuns, tc.wantAll, tc.wantLog)
				}
			} else if g, w := stateOf(got), stateOf(mergeCollector(t, "", false, mergeRuns(0, tc.wantHi))); g != w {
				t.Fatalf("state after merge:\n%s\nwant:\n%s", g, w)
			}
		})
	}
}
