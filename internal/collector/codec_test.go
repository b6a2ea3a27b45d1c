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
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	snap, recs, _, err := corpus.ReadCheckpointFile(path)
	if err != nil || snap == nil {
		t.Fatalf("reading checkpoint %s: %v (snap %v)", path, err, snap)
	}
	var buf bytes.Buffer
	if err := corpus.WriteMergeSegmentRecords(&buf, snap, snap.NumSites, snap.NumPreds, recs, nil); err != nil {
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
	seg := stdGzip(t, func(w io.Writer) error {
		return corpus.WriteMergeSegmentRecords(w, snap, snap.NumSites, snap.NumPreds, recs, nil)
	})
	if code := post(t, oldTS.URL+"/v1/merge", "", seg); code != http.StatusAccepted {
		t.Fatalf("default-level merge segment = %d, want 202", code)
	}
	if err := NewClient(newTS.URL, in.Set.NumSites, in.Set.NumPreds).PushMerge(context.Background(), snap, recs, nil); err != nil {
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

// gzipBody gzips what fill writes, then corrupts it: "gzip CRC" flips a
// byte of the gzip trailer's checksum, "junk byte" writes one byte
// after fill's payload inside the stream, "" leaves it valid.
func gzipBody(t *testing.T, fill func(io.Writer) error, corrupt string) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := report.Gzip(&buf, func(w io.Writer) error {
		if err := fill(w); err != nil {
			return err
		}
		if corrupt == "junk byte" {
			_, err := w.Write([]byte{0})
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if corrupt == "gzip CRC" {
		b[len(b)-8] ^= 0xff
	}
	return b
}

// segmentOf writes the merge segment of reports — their counters and
// their records, keyed when keys is set — as a fill for gzipBody.
func segmentOf(cfg Config, reports []*report.Report, recs [][]byte, keys []uint64) func(io.Writer) error {
	snap := corpus.NewAggSnapshot(cfg.NumSites, cfg.NumPreds)
	snap.Fingerprint = cfg.Fingerprint
	for _, r := range reports {
		snap.ApplyReport(r, +1)
	}
	return func(w io.Writer) error {
		return corpus.WriteMergeSegmentRecords(w, snap, cfg.NumSites, cfg.NumPreds, recs, keys)
	}
}

// TestBodiesReadToTheEnd: a write endpoint's body, and a checkpoint
// file, is exactly one payload inside one intact gzip stream. A corrupt
// gzip trailer or a byte after the last record (after the key list of
// a keyed segment) is refused with 400 before anything is applied, and
// a checkpoint with either does not boot; the valid body then goes
// through.
func TestBodiesReadToTheEnd(t *testing.T) {
	in := testCorpus(t).CoreInput()
	cfg := serverConfig(t)
	batch := in.Set.Reports[:40]
	resident := in.Set.Reports[40:80]
	keys := make([]uint64, len(batch))
	for i := range keys {
		keys[i] = corpus.KeyHash("peer")
	}
	batchSet := &report.Set{NumSites: cfg.NumSites, NumPreds: cfg.NumPreds, Reports: batch}
	for _, tc := range []struct {
		path, want string
		fill       func(io.Writer) error
		ok         int
	}{
		{"/v1/reports", "batches_accepted", batchSet.MarshalBinary, http.StatusAccepted},
		{"/v1/merge", "merges_accepted", segmentOf(cfg, batch, report.EncodeRecords(batch), keys), http.StatusAccepted},
		{"/v1/evict", "runlog_runs", segmentOf(cfg, resident, report.EncodeRecords(resident), nil), http.StatusOK},
	} {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if err := srv.IngestBatch("resident", resident); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		counted := func() [2]int64 {
			st := srv.StatsNow()
			return map[string][2]int64{
				"batches_accepted": {st.BatchesAccepted, st.ReportsEnqueued},
				"merges_accepted":  {st.MergesAccepted, st.Runs},
				"runlog_runs":      {int64(st.RunLogRuns), st.Runs},
			}[tc.want]
		}
		before := counted()
		for _, corrupt := range []string{"gzip CRC", "junk byte"} {
			if code := post(t, ts.URL+tc.path, "", gzipBody(t, tc.fill, corrupt)); code != http.StatusBadRequest {
				t.Errorf("%s with a %s = %d, want 400", tc.path, corrupt, code)
			}
			if got := counted(); got != before {
				t.Errorf("%s with a %s moved %s: %v -> %v", tc.path, corrupt, tc.want, before, got)
			}
		}
		if code := post(t, ts.URL+tc.path, "", gzipBody(t, tc.fill, "")); code != tc.ok {
			t.Errorf("valid %s = %d, want %d", tc.path, code, tc.ok)
		}
	}

	dir := t.TempDir()
	for _, corrupt := range []string{"gzip CRC", "junk byte", ""} {
		ckpt := cfg
		ckpt.SnapshotPath = filepath.Join(dir, strings.ReplaceAll(corrupt, " ", "-")+".snap")
		body := gzipBody(t, segmentOf(cfg, batch, report.EncodeRecords(batch), keys), corrupt)
		if err := os.WriteFile(ckpt.SnapshotPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := New(ckpt)
		if corrupt == "" {
			if err != nil || srv.StatsNow().RunLogRuns != len(batch) {
				t.Fatalf("valid checkpoint: err %v", err)
			}
			srv.Close()
		} else if err == nil {
			srv.Close()
			t.Errorf("checkpoint with a %s booted", corrupt)
		}
	}
}

// padRecord returns rec with its site-list length re-encoded one byte
// longer (a trailing zero continuation group): a record every decoder
// accepts, but not the canonical AppendRecord bytes.
func padRecord(rec []byte) []byte {
	v, n := binary.Uvarint(rec[1:])
	pad := binary.AppendUvarint([]byte{rec[0]}, v)
	pad[len(pad)-1] |= 0x80
	pad = append(pad, 0x00)
	return append(pad, rec[1+n:]...)
}

// TestPaddedRecordsAdoptCanonicalBytes guards the record spans the
// merge and restore paths adopt instead of re-encoding: a peer segment
// and a checkpoint whose records carry overlong varints land in the run
// log as exactly AppendRecord's bytes — the re-checkpointed state equals
// that of a canonical twin — so an evict of the canonical chunk finds
// and removes every run.
func TestPaddedRecordsAdoptCanonicalBytes(t *testing.T) {
	in := testCorpus(t).CoreInput()
	cfg := serverConfig(t)
	reports := in.Set.Reports[:60]
	canon := report.EncodeRecords(reports)
	var padded [][]byte
	for _, rec := range canon {
		if p := padRecord(rec); !bytes.Equal(p, rec) {
			padded = append(padded, p)
		}
	}
	if len(padded) != len(canon) {
		t.Fatal("padding left a record canonical")
	}
	keys := make([]uint64, len(canon))
	for i := range keys {
		keys[i] = corpus.KeyHash("peer")
	}
	dir := t.TempDir()
	boot := func(name string, ckpt [][]byte) (*Server, string) {
		c := cfg
		c.SnapshotPath = filepath.Join(dir, name+".snap")
		if ckpt != nil {
			if err := os.WriteFile(c.SnapshotPath, gzipBody(t, segmentOf(cfg, reports, ckpt, keys), ""), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv, c.SnapshotPath
	}
	merged := func(name string, recs [][]byte) (*Server, string) {
		srv, path := boot(name, nil)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if code := post(t, ts.URL+"/v1/merge", "", gzipBody(t, segmentOf(cfg, reports, recs, keys), "")); code != http.StatusAccepted {
			t.Fatalf("%s: POST /v1/merge = %d", name, code)
		}
		return srv, path
	}
	stateOf := func(srv *Server, path string) []byte {
		if err := srv.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		return checkpointState(t, path)
	}
	twin, twinPath := merged("twin", canon)
	want := stateOf(twin, twinPath)
	for name, build := range map[string]func() (*Server, string){
		"merge":   func() (*Server, string) { return merged("merge", padded) },
		"restore": func() (*Server, string) { return boot("restore", padded) },
	} {
		srv, path := build()
		if got := stateOf(srv, path); !bytes.Equal(got, want) {
			t.Errorf("%s of padded records: checkpoint state differs from the canonical twin's", name)
		}
		if got := srv.agg.LogView(); !reflect.DeepEqual(got, canon) {
			t.Errorf("%s of padded records: run log holds non-canonical bytes", name)
		}
		ts := httptest.NewServer(srv.Handler())
		code := post(t, ts.URL+"/v1/evict", "", gzipBody(t, segmentOf(cfg, reports, canon, nil), ""))
		ts.Close()
		if st := srv.StatsNow(); code != http.StatusOK || st.RunLogRuns != 0 || st.Runs != 0 {
			t.Errorf("%s: evicting the canonical chunk = %d, left %d logged / %d runs; want every run removed",
				name, code, st.RunLogRuns, st.Runs)
		}
	}
}
