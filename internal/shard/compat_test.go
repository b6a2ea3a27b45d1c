package shard

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"cbi/internal/collector"
)

// TestGatewayPullsDefaultLevelSnapshot is the gateway's share of the
// compression policy's compatibility claim: a shard built before the
// pooled BestSpeed codec answers GET /v1/snapshot — full segments and
// ?since= deltas alike — through a stock gzip.Writer at its default
// level, and a gateway pulling from it through the pooled reader must
// answer exactly as a gateway over a current shard does. The old shard
// is a current one behind a proxy that re-compresses every snapshot
// body the old way.
func TestGatewayPullsDefaultLevelSnapshot(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()
	srv, shard := startCollector(t, collector.Config{
		NumSites:    in.Set.NumSites,
		NumPreds:    in.Set.NumPreds,
		SiteOf:      in.SiteOf,
		Fingerprint: res.Plan.Fingerprint(),
	})
	for _, r := range in.Set.Reports[:600] {
		srv.Ingest(r)
	}

	var fulls, deltas atomic.Int64
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(shard.URL + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		if r.URL.Path != "/v1/snapshot" || resp.StatusCode != http.StatusOK {
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
		w.Header().Del("Content-Length")
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			t.Errorf("shard snapshot is not gzip: %v", err)
			return
		}
		zw := gzip.NewWriter(w)
		if _, err := io.Copy(zw, zr); err != nil {
			t.Errorf("re-compressing snapshot: %v", err)
		}
		zw.Close()
		if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/x-cbi-delta") {
			deltas.Add(1)
		} else {
			fulls.Add(1)
		}
	}))
	defer old.Close()

	gateway := func(shardURL string) *httptest.Server {
		gw, err := NewGateway(GatewayConfig{
			Shards:   []string{shardURL},
			NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds, SiteOf: in.SiteOf,
			Fingerprint: res.Plan.Fingerprint(),
			Logf:        quietLogf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(gw.Close)
		ts := httptest.NewServer(gw.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	viaOld, viaNew := gateway(old.URL), gateway(shard.URL)
	compare := func(when string) {
		t.Helper()
		for _, path := range []string{"/v1/scores?k=0", "/v1/predictors?k=0&affinity=3", "/v1/predictors?engine=ochiai&k=25"} {
			if a, b := getRaw(t, viaOld.URL+path), getRaw(t, viaNew.URL+path); !bytes.Equal(a, b) {
				t.Errorf("%s: %s differs between the default-level shard and the current one", when, path)
			}
		}
	}
	compare("full pull")
	// More ingest: the warm views now catch up through ?since= deltas.
	for _, r := range in.Set.Reports[600:] {
		srv.Ingest(r)
	}
	compare("delta pull")
	if fulls.Load() == 0 || deltas.Load() == 0 {
		t.Fatalf("default-level writer saw %d full and %d delta bodies; want both kinds", fulls.Load(), deltas.Load())
	}
}
