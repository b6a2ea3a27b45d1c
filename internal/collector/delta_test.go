package collector

import (
	"compress/gzip"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"cbi/internal/corpus"
	"cbi/internal/report"
)

// fetchState performs GET /v1/snapshot?since=... and decodes whichever
// form came back.
func fetchState(t *testing.T, url, since string) (snap *corpus.AggSnapshot, window []*report.Report, delta *corpus.DeltaSegment, epoch, ver uint64) {
	t.Helper()
	if since != "" {
		url += "?since=" + since
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/snapshot = %d", resp.StatusCode)
	}
	epoch, _ = strconv.ParseUint(resp.Header.Get("X-CBI-State-Epoch"), 10, 64)
	ver, _ = strconv.ParseUint(resp.Header.Get("X-CBI-State-Version"), 10, 64)
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Content-Type") == "application/x-cbi-delta+gzip" {
		delta, err = corpus.ReadDeltaSegment(gz)
		if err != nil {
			t.Fatal(err)
		}
		return nil, nil, delta, epoch, ver
	}
	snap, recs, _, err := corpus.ReadMergeSegmentKeyed(gz)
	if err != nil {
		t.Fatal(err)
	}
	if window, err = report.DecodeRecords(recs, snap.NumSites, snap.NumPreds); err != nil {
		t.Fatal(err)
	}
	return snap, window, nil, epoch, ver
}

// TestSnapshotDeltaEndpoint drives the versioned /v1/snapshot
// protocol end to end: a warm copy advanced by deltas must equal the
// next full export exactly, and every resync trigger (bad epoch,
// version ahead of history, history overflow) must fall back to a full
// snapshot rather than serve a wrong delta.
func TestSnapshotDeltaEndpoint(t *testing.T) {
	in := testCorpus(t).CoreInput()
	reports := in.Set.Reports[:120]

	srv, err := New(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/snapshot"

	if err := srv.IngestBatch("d-0", reports[:40]); err != nil {
		t.Fatal(err)
	}
	snap, window, delta, epoch, ver := fetchState(t, url, "")
	if delta != nil {
		t.Fatal("unconditional snapshot answered with a delta")
	}
	if epoch == 0 || ver == 0 {
		t.Fatalf("full export without state headers (epoch %d, version %d)", epoch, ver)
	}

	// More ingest, then ask for just the difference.
	if err := srv.IngestBatch("d-1", reports[40:90]); err != nil {
		t.Fatal(err)
	}
	_, _, delta, epoch2, ver2 := fetchState(t, url, fmt.Sprintf("%d:%d", epoch, ver))
	if delta == nil {
		t.Fatal("matching since was not answered with a delta")
	}
	if epoch2 != epoch || delta.Epoch != epoch || delta.From != ver {
		t.Fatalf("delta [%d,%d) epoch %d, asked since %d:%d", delta.From, delta.To, delta.Epoch, epoch, ver)
	}
	window, err = corpus.ApplyDelta(snap, window, delta)
	if err != nil {
		t.Fatal(err)
	}
	if ver2 != delta.To {
		t.Fatalf("version header %d != delta.To %d", ver2, delta.To)
	}

	// The advanced warm copy equals a fresh full export, field by field
	// and run by run.
	fullSnap, fullWindow, _, _, ver3 := fetchState(t, url, "")
	if ver3 != ver2 {
		t.Fatalf("quiescent full export at version %d, warm copy at %d", ver3, ver2)
	}
	if !reflect.DeepEqual(snap, fullSnap) {
		t.Fatalf("warm counters diverged:\nwarm %+v\nfull %+v", snap, fullSnap)
	}
	if !reflect.DeepEqual(window, fullWindow) {
		t.Fatalf("warm window (%d runs) diverged from full export (%d runs)",
			len(window), len(fullWindow))
	}

	// An empty delta is still a delta: nothing changed since ver2.
	if _, _, d, _, _ := fetchState(t, url, fmt.Sprintf("%d:%d", epoch, ver2)); d == nil || len(d.Events) != 0 {
		t.Fatalf("no-change since did not yield an empty delta (%+v)", d)
	}

	// A foreign epoch (restarted shard) must force a full snapshot.
	if s, _, d, _, _ := fetchState(t, url, fmt.Sprintf("%d:%d", epoch+2, ver2)); d != nil || s == nil {
		t.Fatal("epoch mismatch was not answered with a full snapshot")
	}
	// A version from the future likewise.
	if s, _, d, _, _ := fetchState(t, url, fmt.Sprintf("%d:%d", epoch, ver2+1000)); d != nil || s == nil {
		t.Fatal("future version was not answered with a full snapshot")
	}
	// Malformed since likewise.
	if s, _, d, _, _ := fetchState(t, url, "bogus"); d != nil || s == nil {
		t.Fatal("malformed since was not answered with a full snapshot")
	}

	stats := srv.StatsNow()
	if stats.DeltaRequests == 0 || stats.DeltaServed == 0 || stats.DeltaServed > stats.DeltaRequests {
		t.Fatalf("delta stats inconsistent: %d requests, %d served", stats.DeltaRequests, stats.DeltaServed)
	}
}

// TestSnapshotDeltaHistoryOverflow shrinks the event history below the
// ingest volume: a since that fell out of history must get a full
// snapshot, never a partial delta.
func TestSnapshotDeltaHistoryOverflow(t *testing.T) {
	in := testCorpus(t).CoreInput()
	cfg := serverConfig(t)
	cfg.DeltaHistory = 8
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/snapshot"

	if err := srv.IngestBatch("h-0", in.Set.Reports[:4]); err != nil {
		t.Fatal(err)
	}
	_, _, _, epoch, ver := fetchState(t, url, "")
	// Blow past the 8-event history.
	if err := srv.IngestBatch("h-1", in.Set.Reports[4:40]); err != nil {
		t.Fatal(err)
	}
	snap, _, delta, _, _ := fetchState(t, url, fmt.Sprintf("%d:%d", epoch, ver))
	if delta != nil || snap == nil {
		t.Fatal("since beyond retained history was not answered with a full snapshot")
	}
}

// TestSnapshotDeltaDisabled checks the opt-outs: negative DeltaHistory
// and a disabled run log both serve plain full snapshots without state
// headers.
func TestSnapshotDeltaDisabled(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"negative-history": func(c *Config) { c.DeltaHistory = -1 },
		"no-runlog":        func(c *Config) { c.RunLogSize = -1 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := serverConfig(t)
			mut(&cfg)
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			if err := srv.IngestBatch("x-0", testCorpus(t).CoreInput().Set.Reports[:10]); err != nil {
				t.Fatal(err)
			}
			snap, _, delta, epoch, _ := fetchState(t, ts.URL+"/v1/snapshot", "1:1")
			if delta != nil || snap == nil {
				t.Fatal("delta-disabled server answered with a delta")
			}
			if epoch != 0 {
				t.Fatal("delta-disabled server advertised state headers")
			}
		})
	}
}
