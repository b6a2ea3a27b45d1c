package collector

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cbi/internal/corpus"
	"cbi/internal/report"
)

// stdGzip compresses what fill writes with a fresh standard-library
// writer at its default level — byte for byte what every writer in the
// system produced before the pooled BestSpeed codec, and what clients
// and peers built from older sources still send.
func stdGzip(t testing.TB, fill func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := fill(gz); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointState reads a checkpoint file back as the bytes of its
// unkeyed merge segment: the counter text, then the window's records in
// order. Routing keys are left out because they record how a run
// arrived (an in-process Ingest carries none, an HTTP batch its
// client's), which is what the equivalence tests below vary.
func checkpointState(t testing.TB, path string) []byte {
	t.Helper()
	snap, set, _, err := corpus.ReadCheckpointFile(path)
	if err != nil || snap == nil {
		t.Fatalf("reading checkpoint %s: %v (snap %v)", path, err, snap)
	}
	var buf bytes.Buffer
	if err := corpus.WriteMergeSegment(&buf, snap, set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// post sends one gzip-encoded body and returns the status.
func post(t testing.TB, url, batchID string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0
	}
	req.Header.Set("Content-Encoding", "gzip")
	if batchID != "" {
		req.Header.Set("X-CBI-Batch-ID", batchID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestDefaultLevelGzipStillLoads is the write-path half of the
// compression policy's compatibility claim (the at-rest half is
// corpus.TestDefaultLevelFilesStillLoad, the gateway's pull
// shard.TestGatewayPullsDefaultLevelSnapshot): report batches and
// merge segments compressed at the old default level by a stock
// gzip.Writer ingest exactly like ones the pooled codec wrote, and the
// state a collector persists from them is byte-identical either way.
func TestDefaultLevelGzipStillLoads(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	reports := in.Set.Reports[:256]

	boot := func(name string) (*Server, *httptest.Server, string) {
		cfg := serverConfig(t)
		cfg.Workers = 1 // the checkpointed windows are compared byte for byte below
		cfg.SnapshotPath = filepath.Join(t.TempDir(), name+".snap")
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts, cfg.SnapshotPath
	}
	oldSrv, oldTS, oldSnap := boot("old")
	newSrv, newTS, newSnap := boot("new")

	// The same batches, one server fed by a stock default-level writer
	// and the other by the client's pooled codec.
	client := NewClient(newTS.URL, in.Set.NumSites, in.Set.NumPreds, WithBatchSize(64))
	if err := client.SubmitSet(context.Background(), &report.Set{
		NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds, Reports: reports[:192]}); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 192; lo += 64 {
		set := &report.Set{NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds, Reports: reports[lo : lo+64]}
		if code := post(t, oldTS.URL+"/v1/reports", "", stdGzip(t, set.MarshalBinary)); code != http.StatusAccepted {
			t.Fatalf("default-level batch = %d, want 202", code)
		}
	}
	waitApplied(t, oldSrv, 192)
	waitApplied(t, newSrv, 192)

	// A peer's state as a merge segment, again at both levels.
	peer, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	for _, r := range reports[192:] {
		peer.Ingest(r)
	}
	snap, recs := peer.agg.Snapshot(peer.cfg.Fingerprint)
	peerSet := &report.Set{NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds}
	if peerSet.Reports, err = decodeRecords(recs, in.Set.NumSites, in.Set.NumPreds); err != nil {
		t.Fatal(err)
	}
	seg := stdGzip(t, func(w io.Writer) error { return corpus.WriteMergeSegment(w, snap, peerSet) })
	if code := post(t, oldTS.URL+"/v1/merge", "", seg); code != http.StatusAccepted {
		t.Fatalf("default-level merge segment = %d, want 202", code)
	}
	if err := NewClient(newTS.URL, in.Set.NumSites, in.Set.NumPreds).PushMerge(context.Background(), snap, peerSet); err != nil {
		t.Fatal(err)
	}

	if o, n := oldSrv.StatsNow(), newSrv.StatsNow(); o.Runs != int64(len(reports)) || o.Runs != n.Runs || o.Failing != n.Failing || o.RunLogRuns != n.RunLogRuns {
		t.Fatalf("stats differ: default-level %+v, pooled %+v", o, n)
	}
	if err := oldSrv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := newSrv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointState(t, oldSnap), checkpointState(t, newSnap)) {
		t.Error("checkpoint differs between default-level and pooled ingest")
	}
}

// TestPooledCodecHostileInputThenReuse feeds every write endpoint that
// borrows a pooled gzip reader the inputs that make it fail early — a
// bad header, a stream cut short, a body that inflates past
// maxBatchBytes — and then checks the pools are intact: 100 concurrent
// good requests, interleaved with requests that take the handlers'
// other early returns and with the endpoints that borrow pooled
// writers, all succeed and ingest exact counts. Under -race a reader or
// writer returned to its pool while a handler still used it is a
// reported race; without it, a corrupted batch or a wrong count.
func TestPooledCodecHostileInputThenReuse(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	srv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	good := encodeBatch(t, in, in.Set.Reports[:8])
	// A header claiming far more reports than 64 MiB can hold, over a
	// body of empty records that inflates past the limit: the size cap
	// cuts it short, and the count can no longer be met.
	bomb := stdGzip(t, func(w io.Writer) error {
		head := append([]byte("CBR1"), binary.AppendUvarint(nil, uint64(in.Set.NumSites))...)
		head = binary.AppendUvarint(head, uint64(in.Set.NumPreds))
		head = binary.AppendUvarint(head, maxBatchBytes/2)
		w.Write(head)
		zeros := make([]byte, 1<<20)
		for n := 0; n <= maxBatchBytes; n += len(zeros) {
			if _, err := w.Write(zeros); err != nil {
				return err
			}
		}
		return nil
	})
	hostile := []struct {
		name string
		body []byte
	}{
		{"bad gzip header", []byte("\x1f\x8bnot a gzip header at all")},
		{"not gzip", []byte("CBR1 plain")},
		{"truncated stream", good[:len(good)/2]},
		{"header only", good[:10]},
	}
	for _, path := range []string{"/v1/reports", "/v1/merge", "/v1/evict", "/v1/residual"} {
		for _, h := range hostile {
			if code := post(t, ts.URL+path, "", h.body); code != http.StatusBadRequest {
				t.Errorf("POST %s with %s = %d, want 400", path, h.name, code)
			}
		}
	}
	if code := post(t, ts.URL+"/v1/reports", "", bomb); code != http.StatusBadRequest {
		t.Errorf("POST /v1/reports inflating past maxBatchBytes = %d, want 400", code)
	}
	if st := srv.StatsNow(); st.Runs != 0 || st.ReportsEnqueued != 0 {
		t.Fatalf("hostile bodies ingested something: %+v", st)
	}

	const requests, perBatch = 100, 8
	wrongDims := stdGzip(t, (&report.Set{NumSites: 1, NumPreds: 1, Reports: []*report.Report{{}}}).MarshalBinary)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps := in.Set.Reports[i*perBatch : (i+1)*perBatch]
			set := &report.Set{NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds, Reports: reps}
			body := encodeBatch(t, in, reps)
			if i%2 == 1 {
				var buf bytes.Buffer
				if err := report.Gzip(&buf, set.MarshalBinary); err != nil {
					t.Error(err)
					return
				}
				body = buf.Bytes()
			}
			id := fmt.Sprintf("reuse-%d", i)
			if code := post(t, ts.URL+"/v1/reports", id, body); code != http.StatusAccepted {
				t.Errorf("good batch %d = %d, want 202", i, code)
			}
			// The handlers' own early returns, each with a borrowed
			// reader to give back: a retry of the same id, a batch of
			// the wrong dimensions, a stream cut short.
			switch i % 4 {
			case 0:
				if code := post(t, ts.URL+"/v1/reports", id, body); code != http.StatusAccepted {
					t.Errorf("duplicate batch %d = %d, want 202", i, code)
				}
			case 1:
				if code := post(t, ts.URL+"/v1/reports", "", wrongDims); code != http.StatusBadRequest {
					t.Errorf("wrong-dimension batch = %d, want 400", code)
				}
			case 2:
				if code := post(t, ts.URL+"/v1/merge", "", body[:len(body)-9]); code != http.StatusBadRequest {
					t.Errorf("truncated merge = %d, want 400", code)
				}
			case 3:
				// A pooled writer on the response side, read by a pooled
				// reader on this one.
				resp, err := http.Get(ts.URL + "/v1/snapshot")
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				gz, err := report.Gunzip(resp.Body)
				if err != nil {
					t.Errorf("snapshot gzip: %v", err)
					return
				}
				defer gz.Close()
				if _, _, _, err := corpus.ReadMergeSegmentKeyed(gz); err != nil {
					t.Errorf("snapshot under ingest: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()

	ingested := in.Set.Reports[:requests*perBatch]
	waitApplied(t, srv, int64(len(ingested)))
	st := srv.StatsNow()
	if st.Runs != int64(len(ingested)) || st.ReportsApplied != st.Runs || st.BatchesDeduped != requests/4 {
		t.Fatalf("after %d good requests: %+v", requests, st)
	}
	got, err := NewClient(ts.URL, in.Set.NumSites, in.Set.NumPreds).Scores(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantTopK(in, ingested, 50); !reflect.DeepEqual(got, want) {
		t.Fatal("scores after hostile input and concurrent reuse differ from the batch pipeline")
	}
}
