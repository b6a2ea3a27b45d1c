package collector

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"cbi/internal/corpus"
)

// fetchSegment pulls a collector's /v1/snapshot merge segment, both as
// the raw gzip'd bytes (for re-POSTing) and decoded.
func fetchSegment(t *testing.T, ts *httptest.Server) ([]byte, *corpus.AggSnapshot, [][]byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/snapshot = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	snap, recs, _, err := corpus.ReadMergeSegmentKeyed(gz)
	if err != nil {
		t.Fatal(err)
	}
	return raw, snap, recs
}

// postMerge re-POSTs a gzip'd merge segment with a batch id, returning
// the status code and decoded response.
func postMerge(t *testing.T, ts *httptest.Server, body []byte, batchID string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/merge", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-cbi-merge")
	req.Header.Set("Content-Encoding", "gzip")
	if batchID != "" {
		req.Header.Set("X-CBI-Batch-ID", batchID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// TestMergeEndpointEquivalence splits the corpus across two collectors,
// folds one into the other through POST /v1/merge, and requires the
// merged collector to serve exactly what a single collector over the
// whole corpus serves — scores and full cause isolation.
func TestMergeEndpointEquivalence(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	cfg := serverConfig(t)

	half := len(in.Set.Reports) / 2
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, r := range in.Set.Reports[:half] {
		a.Ingest(r)
	}
	for _, r := range in.Set.Reports[half:] {
		b.Ingest(r)
	}
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	seg, snap, recs := fetchSegment(t, tsB)
	if got := snap.NumF + snap.NumS; got != int64(len(in.Set.Reports)-half) {
		t.Fatalf("b's snapshot counts %d runs, want %d", got, len(in.Set.Reports)-half)
	}
	if len(recs) != len(in.Set.Reports)-half {
		t.Fatalf("b's segment logs %d runs, want %d", len(recs), len(in.Set.Reports)-half)
	}

	code, body := postMerge(t, tsA, seg, "merge-b-into-a")
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/merge = %d: %v", code, body)
	}

	st := a.StatsNow()
	if st.MergesAccepted != 1 || st.MergedRuns != int64(len(recs)) {
		t.Fatalf("merge stats = %d merges / %d runs, want 1 / %d", st.MergesAccepted, st.MergedRuns, len(recs))
	}
	if int(st.Runs) != len(in.Set.Reports) {
		t.Fatalf("merged collector counts %d runs, want %d", st.Runs, len(in.Set.Reports))
	}

	ctx := context.Background()
	client := NewClient(tsA.URL, in.Set.NumSites, in.Set.NumPreds)
	gotScores, err := client.Scores(ctx, 30)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantTopK(in, in.Set.Reports, 30); !reflect.DeepEqual(gotScores, want) {
		t.Fatal("merged /v1/scores diverges from batch pipeline over the full corpus")
	}
	gotPreds, err := client.Predictors(ctx, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := BuildPredictors(in, 0, 3); !reflect.DeepEqual(gotPreds, want) {
		t.Fatal("merged /v1/predictors diverges from batch cause isolation over the full corpus")
	}
}

// TestMergeDedup re-POSTs the same segment under the same batch id —
// the lost-ack retry — and requires the duplicate to be acked without
// double-counting.
func TestMergeDedup(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	cfg := serverConfig(t)

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, r := range in.Set.Reports[:100] {
		b.Ingest(r)
	}
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	seg, _, _ := fetchSegment(t, tsB)
	code, _ := postMerge(t, tsA, seg, "retry-me")
	if code != http.StatusAccepted {
		t.Fatalf("first merge = %d", code)
	}
	code, body := postMerge(t, tsA, seg, "retry-me")
	if code != http.StatusAccepted {
		t.Fatalf("retried merge = %d", code)
	}
	if dup, _ := body["duplicate"].(bool); !dup {
		t.Fatalf("retried merge not flagged duplicate: %v", body)
	}
	st := a.StatsNow()
	if st.Runs != 100 || st.MergesAccepted != 1 {
		t.Fatalf("after duplicate merge: %d runs, %d merges; want 100 runs, 1 merge", st.Runs, st.MergesAccepted)
	}
}

// TestMergeValidation rejects malformed and mismatched segments.
func TestMergeValidation(t *testing.T) {
	cfg := serverConfig(t)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Garbage body.
	var gzGarbage bytes.Buffer
	gz := gzip.NewWriter(&gzGarbage)
	gz.Write([]byte("not a merge segment"))
	gz.Close()
	if code, _ := postMerge(t, ts, gzGarbage.Bytes(), ""); code != http.StatusBadRequest {
		t.Fatalf("garbage merge = %d, want 400", code)
	}

	// Wrong dimensions.
	snap := corpus.NewAggSnapshot(3, 5)
	var seg bytes.Buffer
	gz = gzip.NewWriter(&seg)
	if err := corpus.WriteMergeSegmentRecords(gz, snap, 3, 5, nil, nil); err != nil {
		t.Fatal(err)
	}
	gz.Close()
	if code, _ := postMerge(t, ts, seg.Bytes(), ""); code != http.StatusBadRequest {
		t.Fatalf("mismatched-dimension merge = %d, want 400", code)
	}

	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/merge")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/merge = %d, want 405", resp.StatusCode)
	}
}

// TestPushMergeClient drives the same path through Client.PushMerge.
func TestPushMergeClient(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	cfg := serverConfig(t)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, r := range in.Set.Reports[:64] {
		b.Ingest(r)
	}
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	_, snap, recs := fetchSegment(t, tsB)
	client := NewClient(tsA.URL, in.Set.NumSites, in.Set.NumPreds)
	if err := client.PushMerge(context.Background(), snap, recs, nil); err != nil {
		t.Fatal(err)
	}
	if st := a.StatsNow(); st.Runs != 64 || st.RunLogRuns != 64 {
		t.Fatalf("after PushMerge: %d runs, %d logged; want 64/64", st.Runs, st.RunLogRuns)
	}
}

// TestMergeBeyondWindowSurvivesRestart is the subtle retention
// interaction: a counters-only peer (run log disabled) exports counters
// with no run-log segment, so after a merge the local counters
// legitimately exceed the retained window. A snapshot/restart must keep
// those counters rather than "repairing" them down to the log (aggsnap
// v2's LOGGED field is what distinguishes the two cases).
func TestMergeBeyondWindowSurvivesRestart(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	cfg := serverConfig(t)
	cfg.SnapshotPath = t.TempDir() + "/collector.snap"

	bCfg := serverConfig(t)
	bCfg.RunLogSize = -1 // counters-only peer: counts runs its segment can't carry
	b, err := New(bCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, r := range in.Set.Reports[:200] {
		b.Ingest(r)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	_, snap, recs := fetchSegment(t, tsB)
	if len(recs) != 0 {
		t.Fatalf("counters-only peer exported %d logged runs, want 0", len(recs))
	}

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 30 directly ingested runs populate a's own log, so the restart
	// below checks the mixed state: a real window plus counters from
	// beyond it.
	for _, r := range in.Set.Reports[200:230] {
		a.Ingest(r)
	}
	tsA := httptest.NewServer(a.Handler())
	client := NewClient(tsA.URL, in.Set.NumSites, in.Set.NumPreds)
	if err := client.PushMerge(context.Background(), snap, recs, nil); err != nil {
		t.Fatal(err)
	}
	st := a.StatsNow()
	if st.Runs != 230 || st.RunLogRuns != 30 {
		t.Fatalf("merged state = %d runs / %d logged, want 230/30", st.Runs, st.RunLogRuns)
	}
	scoresBefore, err := client.Scores(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	a2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	st2 := a2.StatsNow()
	if st2.Runs != 230 || st2.RunLogRuns != 30 {
		t.Fatalf("restored state = %d runs / %d logged, want 230/30 (counters were recounted from the log?)",
			st2.Runs, st2.RunLogRuns)
	}
	tsA2 := httptest.NewServer(a2.Handler())
	defer tsA2.Close()
	client2 := NewClient(tsA2.URL, in.Set.NumSites, in.Set.NumPreds)
	scoresAfter, err := client2.Scores(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scoresAfter, scoresBefore) {
		t.Fatal("restored scores diverge from pre-restart merged scores")
	}
}

// TestSnapshotEndpointRejectsNonGET nails the /v1/snapshot method.
func TestSnapshotEndpointRejectsNonGET(t *testing.T) {
	srv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/snapshot", "text/plain", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/snapshot = %d, want 405", resp.StatusCode)
	}
}
