package collector

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cbi/internal/core"
	"cbi/internal/corpus"
	"cbi/internal/report"
)

// serverConfig builds a Config matching the shared test corpus.
func serverConfig(t *testing.T) Config {
	res := testCorpus(t)
	in := res.CoreInput()
	return Config{
		NumSites:    in.Set.NumSites,
		NumPreds:    in.Set.NumPreds,
		SiteOf:      in.SiteOf,
		Fingerprint: res.Plan.Fingerprint(),
	}
}

// waitApplied polls until the server has applied n reports.
func waitApplied(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s.StatsNow().ReportsApplied >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("server applied %d of %d reports before deadline", s.StatsNow().ReportsApplied, n)
}

// wantTopK is the batch pipeline's ranking over a report subset — the
// ground truth every live ranking must match exactly.
func wantTopK(in core.Input, reports []*report.Report, k int) []ScoreEntry {
	sub := core.Input{
		Set: &report.Set{
			NumSites: in.Set.NumSites,
			NumPreds: in.Set.NumPreds,
			Reports:  reports,
		},
		SiteOf: in.SiteOf,
	}
	ranked := core.TopKImportance(core.Aggregate(sub), k)
	out := make([]ScoreEntry, len(ranked))
	for i, ps := range ranked {
		out[i] = ScoreEntry{
			Pred:         ps.Pred,
			Importance:   ps.Scores.Importance,
			ImportanceCI: ps.Scores.ImportanceCI,
			Increase:     ps.Scores.Increase,
			IncreaseCI:   ps.Scores.IncreaseCI,
			Failure:      ps.Scores.Failure,
			Context:      ps.Scores.Context,
			F:            ps.Stats.F,
			S:            ps.Stats.S,
			Fobs:         ps.Stats.Fobs,
			Sobs:         ps.Stats.Sobs,
		}
	}
	return out
}

// TestEndToEndConcurrentClientsMatchBatch is the headline equivalence
// test: 8 concurrent clients stream a full subject corpus over HTTP
// into a live collector, and the resulting /v1/scores ranking must be
// identical — predicates, order, and every score — to the batch core
// pipeline run over the same reports.
func TestEndToEndConcurrentClientsMatchBatch(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()

	srv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	const numClients = 8
	clients := make([]*Client, numClients)
	var wg sync.WaitGroup
	errs := make(chan error, numClients)
	for w := 0; w < numClients; w++ {
		// Vary batch sizes so flush boundaries differ across clients.
		clients[w] = NewClient(base, in.Set.NumSites, in.Set.NumPreds,
			WithBatchSize(7+w*5))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := w; i < len(in.Set.Reports); i += numClients {
				if err := clients[w].Add(ctx, in.Set.Reports[i]); err != nil {
					errs <- err
					return
				}
			}
			errs <- clients[w].Flush(ctx)
		}(w)
	}
	wg.Wait()
	for w := 0; w < numClients; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, srv, int64(len(in.Set.Reports)))

	ctx := context.Background()
	stats, err := clients[0].Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if int(stats.Runs) != len(in.Set.Reports) || int(stats.Failing) != res.NumFailing() {
		t.Fatalf("stats runs=%d failing=%d, want %d/%d",
			stats.Runs, stats.Failing, len(in.Set.Reports), res.NumFailing())
	}

	const k = 25
	got, err := clients[0].Scores(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	want := wantTopK(in, in.Set.Reports, k)
	if len(want) == 0 {
		t.Fatal("batch pipeline produced an empty ranking; test is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live ranking diverges from batch pipeline:\ngot:  %+v\nwant: %+v", got, want)
	}

	if !clients[0].Healthy(ctx) {
		t.Error("healthz not ok on a live server")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestSnapshotKillRestart kills a collector without a WAL (no drain, no
// final checkpoint) in the middle of writing its second checkpoint and
// restarts it from what is on disk: the first checkpoint, whole. Stats,
// ranking and the window must equal the state at that checkpoint — one
// file cannot tear, so nothing is recounted — and retrying the batches
// submitted after it must converge to the full-corpus state.
func TestSnapshotKillRestart(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	cfg := serverConfig(t)
	dir := t.TempDir()
	cfg.SnapshotPath = filepath.Join(dir, "collector.snap")
	cfg.CheckpointEvery = time.Hour // checkpoints only when the test says so
	// frozen is the state dir as a kill inside the latest checkpoint leaves it.
	var frozen string
	cfg.checkpointHook = func(stage string) {
		if stage == "captured" {
			frozen = copyTree(t, dir)
		}
	}

	half := len(in.Set.Reports) / 2
	firstHalf, secondHalf := in.Set.Reports[:half], in.Set.Reports[half:]

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	client := NewClient(ts1.URL, in.Set.NumSites, in.Set.NumPreds, WithBatchSize(32))
	ctx := context.Background()

	submit := func(c *Client, reps []*report.Report) {
		t.Helper()
		if err := c.SubmitSet(ctx, &report.Set{
			NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds, Reports: reps,
		}); err != nil {
			t.Fatal(err)
		}
	}

	submit(client, firstHalf)
	waitApplied(t, srv1, int64(half))
	if err := srv1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	firstCheckpoint, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	statsAtSnap := srv1.StatsNow()
	scoresAtSnap, err := client.Scores(ctx, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Raw JSON bytes, so the restart check below is bit-for-bit, not
	// merely DeepEqual after a decode round trip.
	_, predsAtSnap := rawViews(t, srv1)

	// More reports arrive and are acked after the snapshot...
	submit(client, secondHalf)
	waitApplied(t, srv1, int64(len(in.Set.Reports)))

	// ...then the collector dies without warning, its second checkpoint
	// captured but not yet on disk.
	if err := srv1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the frozen disk: post-checkpoint reports are gone,
	// everything up to the first checkpoint is intact — re-checkpointing
	// the restored state reproduces that file byte for byte.
	cfg.SnapshotPath = filepath.Join(frozen, "collector.snap")
	cfg.checkpointHook = nil
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := srv2.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(cfg.SnapshotPath); err != nil || !bytes.Equal(again, firstCheckpoint) {
		t.Fatalf("restored counters+window re-checkpoint to different bytes than the first checkpoint (err %v)", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	client2 := NewClient(ts2.URL, in.Set.NumSites, in.Set.NumPreds, WithBatchSize(32))

	restored := srv2.StatsNow()
	if restored.Runs != statsAtSnap.Runs || restored.Failing != statsAtSnap.Failing ||
		restored.Successful != statsAtSnap.Successful {
		t.Fatalf("restored stats (%d/%d/%d) != snapshot stats (%d/%d/%d)",
			restored.Runs, restored.Failing, restored.Successful,
			statsAtSnap.Runs, statsAtSnap.Failing, statsAtSnap.Successful)
	}
	scoresRestored, err := client2.Scores(ctx, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scoresRestored, scoresAtSnap) {
		t.Fatal("restored ranking differs from pre-kill snapshot ranking")
	}
	if restored.RunLogRuns != int(statsAtSnap.Runs) {
		t.Fatalf("restored run log holds %d runs, want %d", restored.RunLogRuns, statsAtSnap.Runs)
	}
	// The restored run log must reproduce the live cause-isolation view
	// bit for bit — same JSON bytes as the pre-kill collector served.
	if _, predsRestored := rawViews(t, srv2); !bytes.Equal(predsRestored, predsAtSnap) {
		t.Fatalf("restored /v1/predictors differs from pre-kill bytes:\npre-kill: %s\nrestored: %s",
			predsAtSnap, predsRestored)
	}

	// Clients retry the unacknowledged tail; the collector converges to
	// exactly the batch pipeline over the full corpus.
	submit(client2, secondHalf)
	waitApplied(t, srv2, int64(len(in.Set.Reports)))
	finalScores, err := client2.Scores(ctx, 25)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantTopK(in, in.Set.Reports, 25); !reflect.DeepEqual(finalScores, want) {
		t.Fatal("post-retry ranking diverges from batch pipeline over the full corpus")
	}
	finalPreds, err := client2.Predictors(ctx, 25, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := BuildPredictors(in, 25, 4); !reflect.DeepEqual(finalPreds, want) {
		t.Fatal("post-retry /v1/predictors diverges from batch cause isolation over the full corpus")
	}
	final := srv2.StatsNow()
	if int(final.Runs) != len(in.Set.Reports) || int(final.Failing) != res.NumFailing() {
		t.Fatalf("final stats (%d/%d) wrong", final.Runs, final.Failing)
	}
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdownPersistsSnapshot checks Shutdown's contract:
// everything queued is applied and the final snapshot covers it.
func TestGracefulShutdownPersistsSnapshot(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	cfg := serverConfig(t)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "collector.snap")

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := NewClient(ts.URL, in.Set.NumSites, in.Set.NumPreds)
	ctx := context.Background()
	if err := client.SubmitSet(ctx, in.Set); err != nil {
		t.Fatal(err)
	}
	// No waitApplied: Shutdown itself must drain the queue.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	stats := srv2.StatsNow()
	if int(stats.Runs) != len(in.Set.Reports) || int(stats.Failing) != res.NumFailing() {
		t.Fatalf("snapshot after drain has %d runs (%d failing), want %d (%d)",
			stats.Runs, stats.Failing, len(in.Set.Reports), res.NumFailing())
	}
}

// encodeBatch builds a gzip'd binary POST body for raw HTTP tests.
func encodeBatch(t *testing.T, in core.Input, reps []*report.Report) []byte {
	t.Helper()
	set := &report.Set{NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds, Reports: reps}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := set.MarshalBinary(gz); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBackpressure429 wedges the apply pipeline and posts until the
// bounded queue overflows: the server must shed load with 429 +
// Retry-After rather than buffer without bound, and a retrying client
// must succeed once the pipeline unwedges.
func TestBackpressure429(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	cfg := serverConfig(t)
	cfg.QueueSize = 2
	cfg.Workers = 1
	gate := make(chan struct{})
	cfg.applyHook = func(*report.Report) { <-gate }

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	payload := encodeBatch(t, in, in.Set.Reports[:1])
	post := func() *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports", bytes.NewReader(payload))
		req.Header.Set("Content-Encoding", "gzip")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	var saw429 bool
	var accepted int
	for i := 0; i < 50 && !saw429; i++ {
		resp := post()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if !saw429 {
		t.Fatalf("no 429 after %d accepted batches with queue size 2", accepted)
	}
	if srv.StatsNow().BatchesRejected == 0 {
		t.Error("stats do not count rejected batches")
	}

	// Unwedge; a client with retries drives its batch through.
	close(gate)
	retrying := NewClient(ts.URL, in.Set.NumSites, in.Set.NumPreds,
		WithBatchSize(8), WithRetry(20, time.Millisecond))
	if err := retrying.SubmitSet(context.Background(), &report.Set{
		NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds, Reports: in.Set.Reports[:20],
	}); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	waitApplied(t, srv, int64(accepted+20))
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHandlerValidation covers the API's rejection paths.
func TestHandlerValidation(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	srv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	postBody := func(body []byte, gzipped bool) int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports", bytes.NewReader(body))
		if gzipped {
			req.Header.Set("Content-Encoding", "gzip")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/v1/reports"); got != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reports = %d, want 405", got)
	}
	if got := postBody(nil, false); got != http.StatusBadRequest {
		t.Errorf("empty POST = %d, want 400", got)
	}
	if got := postBody([]byte("CBR1 garbage"), false); got != http.StatusBadRequest {
		t.Errorf("garbage POST = %d, want 400", got)
	}
	if got := postBody([]byte("not gzip"), true); got != http.StatusBadRequest {
		t.Errorf("bad gzip POST = %d, want 400", got)
	}

	// Dimension mismatch must be rejected before ingestion.
	wrong := &report.Set{NumSites: 1, NumPreds: 1, Reports: []*report.Report{{}}}
	var buf bytes.Buffer
	if err := wrong.MarshalBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if got := postBody(buf.Bytes(), false); got != http.StatusBadRequest {
		t.Errorf("mismatched dimensions POST = %d, want 400", got)
	}

	// The text codec is a file format, not a wire format: a well-formed
	// text batch is refused like any other body without the CBR1 magic,
	// and the refusal names the magic it wanted.
	var txt bytes.Buffer
	sub := &report.Set{NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds,
		Reports: in.Set.Reports[:3]}
	if err := sub.Marshal(&txt); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/reports", "", &txt)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `"CBR1"`) {
		t.Errorf("text codec POST = %d %q, want 400 naming the CBR1 magic", resp.StatusCode, msg)
	}
	if st := srv.StatsNow(); st.BatchesAccepted != 0 {
		t.Errorf("refused bodies were accepted: batches_accepted = %d", st.BatchesAccepted)
	}

	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d, want 200", got)
	}
	if got := get("/v1/stats"); got != http.StatusOK {
		t.Errorf("stats = %d, want 200", got)
	}
}

// TestBatchDedup: delivery is at-least-once — a batch can be enqueued
// while its ack is lost, and the client retries it with the same
// X-CBI-Batch-ID. The retry must be acked without being ingested twice.
func TestBatchDedup(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	srv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	payload := encodeBatch(t, in, in.Set.Reports[:5])
	post := func(id string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports", bytes.NewReader(payload))
		req.Header.Set("Content-Encoding", "gzip")
		if id != "" {
			req.Header.Set("X-CBI-Batch-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if got, _ := post("batch-1"); got != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", got)
	}
	got, body := post("batch-1")
	if got != http.StatusAccepted {
		t.Fatalf("retried POST = %d, want 202 (idempotent ack)", got)
	}
	if !strings.Contains(body, `"duplicate":true`) {
		t.Errorf("retried POST body %q does not flag the duplicate", body)
	}
	waitApplied(t, srv, 5)
	st := srv.StatsNow()
	if st.ReportsEnqueued != 5 {
		t.Errorf("duplicate batch was re-ingested: %d reports enqueued, want 5", st.ReportsEnqueued)
	}
	if st.BatchesDeduped != 1 {
		t.Errorf("BatchesDeduped = %d, want 1", st.BatchesDeduped)
	}

	// Batches without an id (legacy clients) are never deduplicated.
	if got, _ := post(""); got != http.StatusAccepted {
		t.Fatalf("id-less POST = %d, want 202", got)
	}
	if got, _ := post(""); got != http.StatusAccepted {
		t.Fatalf("second id-less POST = %d, want 202", got)
	}
	waitApplied(t, srv, 15)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDedupNotClaimedOn429: a 429 rejection must not record the
// batch id — otherwise the client's retry of a batch that was never
// ingested would be dropped as a "duplicate".
func TestBatchDedupNotClaimedOn429(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	cfg := serverConfig(t)
	cfg.QueueSize = 1
	cfg.Workers = 1
	gate := make(chan struct{})
	cfg.applyHook = func(*report.Report) { <-gate }

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	payload := encodeBatch(t, in, in.Set.Reports[:1])
	post := func(id string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports", bytes.NewReader(payload))
		req.Header.Set("Content-Encoding", "gzip")
		req.Header.Set("X-CBI-Batch-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// Wedge the pipeline until "retry-me" bounces with 429.
	saw429 := false
	for i := 0; i < 50 && !saw429; i++ {
		if got, _ := post(fmt.Sprintf("fill-%d", i)); got == http.StatusTooManyRequests {
			saw429 = true
		}
	}
	if !saw429 {
		t.Fatal("queue never overflowed")
	}
	if got, _ := post("retry-me"); got != http.StatusTooManyRequests {
		t.Fatal("expected 429 for retry-me while wedged")
	}

	// Unwedge; the retry must be accepted as fresh, not deduplicated.
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, body := post("retry-me")
		if got == http.StatusAccepted {
			if strings.Contains(body, `"duplicate":true`) {
				t.Fatalf("retry after 429 treated as duplicate: %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry-me never accepted (last status %d)", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestNewValidation covers constructor error paths.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumSites: 1, NumPreds: 0}); err == nil {
		t.Error("zero preds accepted")
	}
	if _, err := New(Config{NumSites: 1, NumPreds: 2, SiteOf: []int32{0}}); err == nil {
		t.Error("short SiteOf accepted")
	}
	if _, err := New(Config{NumSites: 1, NumPreds: 1, SiteOf: []int32{5}}); err == nil {
		t.Error("out-of-range SiteOf accepted")
	}

	// A pre-checkpoint plain-text snapshot is refused with the command
	// that imports it, not silently dropped.
	dir := t.TempDir()
	legacy := Config{NumSites: 2, NumPreds: 2, SiteOf: []int32{0, 1}, SnapshotPath: filepath.Join(dir, "legacy.snap")}
	var text bytes.Buffer
	if err := corpus.SaveAggSnapshot(&text, corpus.NewAggSnapshot(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy.SnapshotPath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(legacy); err == nil || !strings.Contains(err.Error(), "cbi merge -o") {
		t.Errorf("boot on a plain-text legacy snapshot: err = %v, want the importer hint", err)
	}

	// A snapshot from a different universe must be refused.
	path := filepath.Join(dir, "s.snap")
	cfg := Config{NumSites: 2, NumPreds: 2, SiteOf: []int32{0, 1},
		Fingerprint: 7, SnapshotPath: path}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	bad := cfg
	bad.NumSites, bad.NumPreds, bad.SiteOf = 3, 3, []int32{0, 1, 2}
	if _, err := New(bad); err == nil {
		t.Error("dimension-mismatched snapshot accepted")
	}
	bad = cfg
	bad.Fingerprint = 8
	if _, err := New(bad); err == nil {
		t.Error("fingerprint-mismatched snapshot accepted")
	}
}
