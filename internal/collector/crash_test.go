package collector

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cbi/internal/core"
	"cbi/internal/corpus"
	"cbi/internal/report"
)

// The crash/torn-write recovery matrix. Each case kills a WAL-enabled
// collector at one exact durability boundary — by copying its state
// directory at that instant and booting the copy — and demands that
// the rebooted collector serves /v1/scores and /v1/predictors
// byte-for-byte identical to a collector that ingested the durable
// prefix and never crashed. All ingestion runs on the test goroutine
// (IngestBatch is synchronous), so a copy taken inside a WAL or
// checkpoint hook sees no concurrent disk writes.

const crashBatchSize = 20

// crashBatches slices the shared corpus into the matrix's batch stream.
func crashBatches(t *testing.T) (core.Input, [][]*report.Report) {
	t.Helper()
	in := testCorpus(t).CoreInput()
	reports := in.Set.Reports[:300]
	var batches [][]*report.Report
	for len(reports) > 0 {
		n := min(crashBatchSize, len(reports))
		batches = append(batches, reports[:n])
		reports = reports[n:]
	}
	return in, batches
}

func crashConfig(t *testing.T, dir string) Config {
	cfg := serverConfig(t)
	cfg.SnapshotPath = filepath.Join(dir, "collector.snap")
	cfg.WALPath = filepath.Join(dir, "collector.wal")
	cfg.CheckpointEvery = time.Hour // checkpoints only when the test says so
	return cfg
}

// copyTree snapshots a state directory into a fresh temp dir — the
// "power cut" that freezes whatever is on disk at this instant.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("unexpected directory %s in state dir", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// rawViews fetches the two rankings as raw JSON bytes so comparisons
// are bit-for-bit, not DeepEqual-after-decode.
func rawViews(t *testing.T, srv *Server) (scores, preds []byte) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path string) []byte {
		code, body := getBody(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, code)
		}
		return body
	}
	return get("/v1/scores?k=50"), get("/v1/predictors?k=25&affinity=4")
}

// refViews builds the never-killed reference: a fresh collector fed
// exactly the given batches, in order.
func refViews(t *testing.T, batches [][]*report.Report) (scores, preds []byte) {
	t.Helper()
	srv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, b := range batches {
		if err := srv.IngestBatch(fmt.Sprintf("ref-%03d", i), b); err != nil {
			t.Fatal(err)
		}
	}
	return rawViews(t, srv)
}

func batchID(i int) string { return fmt.Sprintf("batch-%03d", i) }

// runToCrash feeds batches through a WAL-enabled collector with a
// checkpoint after each batch in ckptAt, letting hooks capture the
// state dir into *copied.
func runToCrash(t *testing.T, cfg Config, batches [][]*report.Report, copied *string, ckptAt ...int) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, b := range batches {
		if err := srv.IngestBatch(batchID(i), b); err != nil {
			t.Fatal(err)
		}
		if slices.Contains(ckptAt, i) {
			if err := srv.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if *copied == "" {
		t.Fatal("crash hook never fired")
	}
}

// checkRecovered boots the frozen state directory and compares it,
// bit for bit, against the reference over wantBatches batches. It then
// replays the client's retry of the first unacked batch (retryIdx) and
// checks convergence: the retry must dedup if the batch was durable
// and apply if it was not.
func checkRecovered(t *testing.T, dir string, batches [][]*report.Report, wantBatches, retryIdx int) *Server {
	t.Helper()
	srv, err := New(crashConfig(t, dir))
	if err != nil {
		t.Fatalf("reboot from crash copy: %v", err)
	}
	gotScores, gotPreds := rawViews(t, srv)
	wantScores, wantPreds := refViews(t, batches[:wantBatches])
	if !bytes.Equal(gotScores, wantScores) {
		t.Errorf("recovered /v1/scores differs from never-killed reference over %d batches", wantBatches)
	}
	if !bytes.Equal(gotPreds, wantPreds) {
		t.Errorf("recovered /v1/predictors differs from never-killed reference over %d batches", wantBatches)
	}

	if retryIdx >= 0 {
		wasDurable := retryIdx < wantBatches
		if err := srv.IngestBatch(batchID(retryIdx), batches[retryIdx]); err != nil {
			t.Fatalf("post-restart retry: %v", err)
		}
		after := max(wantBatches, retryIdx+1)
		wantScores, wantPreds = refViews(t, batches[:after])
		gotScores, gotPreds = rawViews(t, srv)
		if !bytes.Equal(gotScores, wantScores) || !bytes.Equal(gotPreds, wantPreds) {
			t.Errorf("post-retry state diverges from reference over %d batches", after)
		}
		if wasDurable && srv.StatsNow().BatchesDeduped == 0 {
			t.Error("retry of a durable batch was not deduped — it double-applied")
		}
	}
	return srv
}

func TestCrashRecoveryMatrix(t *testing.T) {
	_, batches := crashBatches(t)
	ckptAt, target := 7, len(batches)-3

	// Crash before the target batch's WAL record exists: recovery holds
	// everything up to (not including) it, and the client retry applies.
	// Crash after the WAL append but before the apply/ack: the record is
	// durable, so recovery includes it and the retry dedups.
	for _, tc := range []struct {
		name, stage string
		durable     int
	}{{"pre-wal-append", "pre-append", target}, {"post-append-pre-ack", "post-append", target + 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := crashConfig(t, dir)
			var copied string
			appends := 0
			cfg.walHook = func(stage string) {
				if stage != tc.stage {
					return
				}
				if appends == target {
					copied = copyTree(t, dir)
				}
				appends++
			}
			runToCrash(t, cfg, batches, &copied, ckptAt)
			srv := checkRecovered(t, copied, batches, tc.durable, target)
			defer srv.Close()
			if got := srv.StatsNow().WALReplayed; got != int64(tc.durable-ckptAt-1) {
				t.Errorf("replayed %d WAL records, want %d (checkpoint covers the rest)", got, tc.durable-ckptAt-1)
			}
		})
	}

	// Crash as a second checkpoint begins: disk still holds the first
	// checkpoint plus the full WAL tail. Nothing acked is lost.
	t.Run("mid-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		cfg := crashConfig(t, dir)
		var copied string
		ckpts := 0
		cfg.checkpointHook = func(stage string) {
			if stage != "begin" {
				return
			}
			if ckpts == 1 {
				copied = copyTree(t, dir)
			}
			ckpts++
		}
		runToCrash(t, cfg, batches, &copied, ckptAt, len(batches)-1) // the second is interrupted
		srv := checkRecovered(t, copied, batches, len(batches), -1)
		defer srv.Close()
		if got := srv.StatsNow().WALReplayed; got != int64(len(batches)-ckptAt-1) {
			t.Errorf("replayed %d WAL records, want %d", got, len(batches)-ckptAt-1)
		}
	})

	// Crash after the checkpoint file is committed but before the WAL
	// is pruned: replay finds every record already covered and must not
	// double-apply any of them (the retry of batch 3 dedups). Crash after
	// the checkpoint fully completed (WAL pruned): clean recovery from
	// the checkpoint alone. No retry check there: pruning also discards
	// the batch ids, so the dedup horizon is the unpruned WAL — retries of
	// long-acked batches are the client's non-problem (it has the ack),
	// not the recovery path's.
	for _, tc := range []struct {
		name, stage string
		retry       int
	}{{"post-checkpoint-pre-truncate", "committed", 3}, {"post-checkpoint", "done", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := crashConfig(t, dir)
			var copied string
			cfg.checkpointHook = func(stage string) {
				if stage == tc.stage && copied == "" {
					copied = copyTree(t, dir)
				}
			}
			runToCrash(t, cfg, batches, &copied, len(batches)-1)
			srv := checkRecovered(t, copied, batches, len(batches), tc.retry)
			defer srv.Close()
			if got := srv.StatsNow().WALReplayed; got != 0 {
				t.Errorf("replayed %d WAL records past a covering checkpoint; all were covered", got)
			}
		})
	}
}

// TestCrashTornWALTail doctors the frozen WAL the way a torn write
// does — a truncated tail, and separately a corrupted one — and checks
// the rebooted collector drops exactly the damaged record, keeps every
// earlier one, and counts the torn tail.
func TestCrashTornWALTail(t *testing.T) {
	_, batches := crashBatches(t)
	ckptAt := 7

	freeze := func(t *testing.T) string {
		dir := t.TempDir()
		cfg := crashConfig(t, dir)
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range batches {
			if err := srv.IngestBatch(batchID(i), b); err != nil {
				t.Fatal(err)
			}
			if i == ckptAt {
				if err := srv.SnapshotNow(); err != nil {
					t.Fatal(err)
				}
			}
		}
		copied := copyTree(t, dir)
		srv.Close()
		return copied
	}

	lastSegment := func(t *testing.T, dir string) string {
		segs, err := corpus.ListWALSegments(filepath.Join(dir, "collector.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("listing WAL segments: %v (%d found)", err, len(segs))
		}
		return segs[len(segs)-1].Path
	}

	// Cut into (but not past) the final record, or flip a bit inside it:
	// the last batch is torn, everything before it intact.
	for name, damage := range map[string]func(data []byte) []byte{
		"truncated": func(data []byte) []byte { return data[:len(data)-5] },
		"corrupted": func(data []byte) []byte { data[len(data)-5] ^= 0x20; return data },
	} {
		t.Run(name, func(t *testing.T) {
			dir := freeze(t)
			seg := lastSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			srv := checkRecovered(t, dir, batches, len(batches)-1, len(batches)-1)
			defer srv.Close()
			if got := srv.StatsNow().WALTornTails; got != 1 {
				t.Errorf("WALTornTails = %d, want 1", got)
			}
		})
	}

	// A torn segment that is not the newest means acked data is gone;
	// boot must refuse rather than silently lose it. Build the two
	// segments by hand — the live checkpoint path truncates in place,
	// so an older segment only survives when pruning was interrupted.
	t.Run("torn-mid-sequence-refuses", func(t *testing.T) {
		dir := t.TempDir()
		cfg := crashConfig(t, dir)
		base := cfg.WALPath
		seq := uint64(0)
		for segIdx := uint64(1); segIdx <= 2; segIdx++ {
			w, err := corpus.CreateWALSegment(corpus.WALSegmentName(base, segIdx),
				cfg.NumSites, cfg.NumPreds, cfg.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				seq++
				if err := w.Append(&corpus.WALRecord{Kind: corpus.WALBatch, Seq: seq,
					Reports: batches[0]}, cfg.NumSites, cfg.NumPreds); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
		}
		first := corpus.WALSegmentName(base, 1)
		fi, err := os.Stat(first)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(first, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		if _, err := New(cfg); err == nil ||
			!strings.Contains(err.Error(), "torn mid-sequence") {
			t.Fatalf("boot over a mid-sequence torn segment: err = %v, want refusal", err)
		}
	})
}

// TestCrashCheckpointIslands drives the out-of-order apply path: with
// two workers, WAL sequence 2 applies while sequence 1 is still
// in flight, so a checkpoint taken then records coverage as watermark
// plus islands. A crash right after must replay exactly sequence 1.
func TestCrashCheckpointIslands(t *testing.T) {
	in, batches := crashBatches(t)
	b0, b1 := batches[0], batches[1]

	dir := t.TempDir()
	cfg := crashConfig(t, dir)
	cfg.Workers = 2
	cfg.QueueSize = 4
	// The HTTP path decodes fresh Report values, so the wedge matches
	// batch 0's first report by value, and only once. The corpus could
	// hold an equal report inside batch 1; ensure it does not, so the
	// wedge cannot catch the wrong worker.
	gate := make(chan struct{})
	first := b0[0]
	same := func(a, b *report.Report) bool {
		return a.Failed == b.Failed &&
			reflect.DeepEqual(append([]int32{}, a.ObservedSites...), append([]int32{}, b.ObservedSites...)) &&
			reflect.DeepEqual(append([]int32{}, a.TruePreds...), append([]int32{}, b.TruePreds...))
	}
	for _, r := range b1 {
		if same(r, first) {
			t.Skip("corpus batch 1 duplicates batch 0's first report; wedge would be ambiguous")
		}
	}
	var wedgeMu sync.Mutex
	wedged := false
	cfg.applyHook = func(r *report.Report) {
		wedgeMu.Lock()
		hit := !wedged && same(r, first)
		if hit {
			wedged = true
		}
		wedgeMu.Unlock()
		if hit {
			<-gate // wedge batch 0's worker before it touches the aggregate
		}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	post := func(id string, reps []*report.Report) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports",
			bytes.NewReader(encodeBatch(t, in, reps)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Encoding", "gzip")
		req.Header.Set("X-CBI-Batch-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/reports (%s) = %d", id, resp.StatusCode)
		}
	}
	post(batchID(0), b0) // WAL seq 1, wedged before apply
	post(batchID(1), b1) // WAL seq 2, applies while 1 is in flight
	waitApplied(t, srv, int64(len(b1)))

	// Checkpoint with sequence 2 applied but 1 still in flight: the
	// coverage must be watermark 0 + island {2}.
	if err := srv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	copied := copyTree(t, dir)
	close(gate) // let batch 0 finish so shutdown is clean
	waitApplied(t, srv, int64(len(b0)+len(b1)))
	ts.Close()
	srv.Close()

	snap, _, _, err := corpus.ReadCheckpointFile(filepath.Join(copied, "collector.snap"))
	if err != nil || snap == nil {
		t.Fatalf("reading frozen checkpoint: %v (snap %v)", err, snap)
	}
	if snap.WALSeq != 0 || !reflect.DeepEqual(snap.WALIslands, []uint64{2}) {
		t.Fatalf("checkpoint coverage = watermark %d islands %v, want 0 + [2]",
			snap.WALSeq, snap.WALIslands)
	}

	// Reboot: replay must apply sequence 1 (batch 0) and skip the
	// islanded sequence 2. The never-killed reference saw batch 1
	// apply first, then batch 0 — same for the recovered window.
	srv2, err := New(crashConfig(t, copied))
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer srv2.Close()
	if got := srv2.StatsNow().WALReplayed; got != 1 {
		t.Errorf("replayed %d WAL records, want exactly 1 (the non-island)", got)
	}
	gotScores, gotPreds := rawViews(t, srv2)
	wantScores, wantPreds := func() ([]byte, []byte) {
		ref, err := New(serverConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		if err := ref.IngestBatch(batchID(1), b1); err != nil {
			t.Fatal(err)
		}
		if err := ref.IngestBatch(batchID(0), b0); err != nil {
			t.Fatal(err)
		}
		return rawViews(t, ref)
	}()
	if !bytes.Equal(gotScores, wantScores) || !bytes.Equal(gotPreds, wantPreds) {
		t.Fatal("island recovery diverges from the never-killed apply order")
	}
}

// TestCrashInterleavedCheckpoints overlaps two checkpoints the way the
// ticker, the public SnapshotNow and shutdown can: A captures its
// watermark and is parked, more batches are acked, B is started. Unless
// B waits for A, B renames and prunes the WAL through the later
// watermark and A's rename then lands a state file whose log is gone:
// the batches between the two watermarks are lost on the next crash.
func TestCrashInterleavedCheckpoints(t *testing.T) {
	_, batches := crashBatches(t)
	half := len(batches) / 2
	dir := t.TempDir()
	cfg := crashConfig(t, dir)
	var srv *Server
	var bDone chan error
	cfg.checkpointHook = func(stage string) {
		if stage != "captured" || bDone != nil {
			return
		}
		for i := half; i < len(batches); i++ {
			if err := srv.IngestBatch(batchID(i), batches[i]); err != nil {
				t.Error(err)
			}
		}
		bDone = make(chan error, 1)
		go func(done chan<- error) { done <- srv.SnapshotNow() }(bDone)
		select {
		case err := <-bDone:
			t.Errorf("checkpoint B ran to completion (err %v) while A was between capture and rename", err)
			bDone <- err
		case <-time.After(200 * time.Millisecond): // B is waiting its turn
		}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < half; i++ {
		if err := srv.IngestBatch(batchID(i), batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.SnapshotNow(); err != nil { // checkpoint A
		t.Fatal(err)
	}
	if bDone == nil {
		t.Fatal("checkpoint hook never reached the captured stage")
	} else if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	copied := copyTree(t, dir)
	srv.Close()
	checkRecovered(t, copied, batches, len(batches), -1).Close()
}

// TestRevokeEndpoint exercises the failover double-count repair: a
// revoked batch's runs leave both counters and window, the state
// matches a collector that never saw the batch, and the repair
// survives a crash via its WAL record.
func TestRevokeEndpoint(t *testing.T) {
	_, batches := crashBatches(t)
	use := batches[:6]
	victim := 2

	dir := t.TempDir()
	cfg := crashConfig(t, dir)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range use {
		if err := srv.IngestBatch(batchID(i), b); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(srv.Handler())
	revoke := func(body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/revoke", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/revoke = %d", resp.StatusCode)
		}
		out, _ := io.ReadAll(resp.Body)
		return strings.TrimSpace(string(out))
	}

	// Revoking an unknown id is a no-op, not an error.
	if got := revoke(`{"ids":["never-seen"]}`); got != `{"revoked_batches":0,"revoked_runs":0}` {
		t.Fatalf("unknown-id revoke = %s", got)
	}
	want := fmt.Sprintf(`{"revoked_batches":1,"revoked_runs":%d}`, len(use[victim]))
	if got := revoke(fmt.Sprintf(`{"ids":[%q]}`, batchID(victim))); got != want {
		t.Fatalf("revoke = %s, want %s", got, want)
	}
	ts.Close()

	// State now equals a collector that never ingested the victim.
	var without [][]*report.Report
	for i, b := range use {
		if i != victim {
			without = append(without, b)
		}
	}
	// The window order after removal keeps the remaining runs in their
	// original order, so the reference is simply the other batches.
	gotScores, gotPreds := rawViews(t, srv)
	refSrv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range without {
		if err := refSrv.IngestBatch(fmt.Sprintf("wo-%03d", i), b); err != nil {
			t.Fatal(err)
		}
	}
	wantScores, wantPreds := rawViews(t, refSrv)
	refSrv.Close()
	if !bytes.Equal(gotScores, wantScores) || !bytes.Equal(gotPreds, wantPreds) {
		t.Fatal("post-revoke state differs from a collector that never saw the batch")
	}

	// A retry of the revoked batch dedups — the id stays poisoned — so
	// the double count cannot come back through the retry path.
	if err := srv.IngestBatch(batchID(victim), use[victim]); err != nil {
		t.Fatal(err)
	}
	if again, _ := rawViews(t, srv); !bytes.Equal(again, wantScores) {
		t.Fatal("retry of a revoked batch re-applied it")
	}

	// Crash now (no checkpoint since the revoke): the 'R' record must
	// replay and the rebooted collector must still exclude the batch.
	copied := copyTree(t, dir)
	srv.Close()
	srv2, err := New(crashConfig(t, copied))
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer srv2.Close()
	gotScores, gotPreds = rawViews(t, srv2)
	if !bytes.Equal(gotScores, wantScores) || !bytes.Equal(gotPreds, wantPreds) {
		t.Fatal("revoke did not survive the crash")
	}
	if n := srv2.StatsNow().RevokedBatches; n != 1 {
		t.Errorf("replayed RevokedBatches = %d, want 1", n)
	}
}

// TestRevokeAfterCheckpoint covers the harder half of the repair: the
// revoked batch is already inside a checkpoint (its WAL record is
// covered), so replay must rebuild the batch→records mapping from the
// WAL for the revoke to find anything.
func TestRevokeAfterCheckpoint(t *testing.T) {
	_, batches := crashBatches(t)
	use := batches[:6]
	victim := 1

	dir := t.TempDir()
	cfg := crashConfig(t, dir)
	// Crash at the "committed" checkpoint stage: the checkpoint covers
	// every batch, but the WAL records still exist (pruning has not
	// run). Reboot replay must rebuild the batch→records mapping from
	// those covered records, or the revoke would find nothing.
	var copied string
	cfg.checkpointHook = func(stage string) {
		if stage == "committed" && copied == "" {
			copied = copyTree(t, dir)
		}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range use {
		if err := srv.IngestBatch(batchID(i), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if copied == "" {
		t.Fatal("checkpoint hook never fired")
	}

	srv2, err := New(crashConfig(t, copied))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv2.Handler())
	resp, err := http.Post(ts.URL+"/v1/revoke", "application/json",
		strings.NewReader(fmt.Sprintf(`{"ids":[%q]}`, batchID(victim))))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	ts.Close()
	want := fmt.Sprintf(`{"revoked_batches":1,"revoked_runs":%d}`, len(use[victim]))
	if got := strings.TrimSpace(string(body)); got != want {
		t.Fatalf("post-reboot revoke = %s, want %s", got, want)
	}

	var without [][]*report.Report
	for i, b := range use {
		if i != victim {
			without = append(without, b)
		}
	}
	gotScores, _ := rawViews(t, srv2)
	srv2.Close()
	wantScores, _ := refViews(t, without)
	if !bytes.Equal(gotScores, wantScores) {
		t.Fatal("post-reboot revoke did not remove the checkpointed batch")
	}
}
