package collector

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/corpus"
	"cbi/internal/plan"
	"cbi/internal/report"
)

// Client ships feedback reports to a collector server. It batches
// reports, compresses batches, and retries transient failures (429
// backpressure, 5xx, network errors) with exponential backoff. Each
// batch carries a stable random id so the server can deduplicate
// retries whose original ack was lost in transit — without it,
// at-least-once delivery would silently double-count reports. Safe
// for concurrent use — a parallel harness can stream from all workers
// through one client.
type Client struct {
	base string
	hc   *http.Client

	numSites, numPreds int

	batchSize   int
	maxRetries  int
	baseBackoff time.Duration
	maxBackoff  time.Duration
	gzipOn      bool

	// Key is the API key presented as "Authorization: Bearer <Key>" on
	// write requests when the collector (or the shard router in front
	// of it) requires one. Empty means unauthenticated.
	Key string
	// clientID is a stable identity sent as X-CBI-Client-ID so a shard
	// router can consistently partition this client's traffic.
	clientID string

	mu    sync.Mutex
	batch []*report.Report

	// plan is the most recent sampling plan fetched from /v1/plan; its
	// version stamps outgoing batches so the collector can attribute
	// counts to the rates that produced them.
	plan atomic.Pointer[plan.Plan]

	submitted atomic.Int64 // reports acked by the server
	retries   atomic.Int64 // transient failures retried
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithBatchSize sets the flush threshold in reports (default 64).
func WithBatchSize(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.batchSize = n
		}
	}
}

// WithHTTPClient substitutes the HTTP client (default: 30s timeout).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetry sets the retry budget per batch and the initial backoff,
// which doubles per attempt up to 10s (defaults: 5 retries, 50ms).
func WithRetry(maxRetries int, base time.Duration) ClientOption {
	return func(c *Client) {
		c.maxRetries = maxRetries
		if base > 0 {
			c.baseBackoff = base
		}
	}
}

// WithGzip toggles batch compression (default on).
func WithGzip(on bool) ClientOption {
	return func(c *Client) { c.gzipOn = on }
}

// WithAPIKey sets the API key presented on write requests.
func WithAPIKey(key string) ClientOption {
	return func(c *Client) { c.Key = key }
}

// WithClientID pins the routing identity sent as X-CBI-Client-ID
// (default: a random id per Client). A shard router hashes it to pick
// this client's collector backend.
func WithClientID(id string) ClientOption {
	return func(c *Client) { c.clientID = id }
}

// NewClient builds a client for the collector at baseURL (e.g.
// "http://localhost:7575"). numSites and numPreds must match the
// collector's configured dimensions.
func NewClient(baseURL string, numSites, numPreds int, opts ...ClientOption) *Client {
	c := &Client{
		base:        baseURL,
		hc:          &http.Client{Timeout: 30 * time.Second},
		numSites:    numSites,
		numPreds:    numPreds,
		batchSize:   64,
		maxRetries:  5,
		baseBackoff: 50 * time.Millisecond,
		maxBackoff:  10 * time.Second,
		gzipOn:      true,
		clientID:    randomID(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// randomID returns a 24-hex-char random identifier (empty only if the
// system entropy source fails).
func randomID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// Add buffers one report, flushing the batch to the server when it
// reaches the batch size.
func (c *Client) Add(ctx context.Context, r *report.Report) error {
	c.mu.Lock()
	c.batch = append(c.batch, r)
	if len(c.batch) < c.batchSize {
		c.mu.Unlock()
		return nil
	}
	batch := c.batch
	c.batch = nil
	c.mu.Unlock()
	return c.send(ctx, batch)
}

// Flush sends any buffered reports.
func (c *Client) Flush(ctx context.Context) error {
	c.mu.Lock()
	batch := c.batch
	c.batch = nil
	c.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	return c.send(ctx, batch)
}

// SubmitSet streams a whole report set in batch-size chunks.
func (c *Client) SubmitSet(ctx context.Context, set *report.Set) error {
	if set.NumSites != c.numSites || set.NumPreds != c.numPreds {
		return fmt.Errorf("collector: set dimensions %dx%d do not match client %dx%d",
			set.NumSites, set.NumPreds, c.numSites, c.numPreds)
	}
	for lo := 0; lo < len(set.Reports); lo += c.batchSize {
		hi := lo + c.batchSize
		if hi > len(set.Reports) {
			hi = len(set.Reports)
		}
		if err := c.send(ctx, set.Reports[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// Submitted returns the number of reports acked by the server.
func (c *Client) Submitted() int64 { return c.submitted.Load() }

// Retries returns the number of transient failures retried.
func (c *Client) Retries() int64 { return c.retries.Load() }

// encodeBufs recycles the buffers batches are encoded into.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encode returns one batch's request body. The batch is encoded (and
// compressed) into a pooled buffer and the body copied out at exactly
// its size: the transport may still be reading a request body after
// the response is in, so the pooled buffer — like the pooled gzip
// writer — is back in its pool before the network round trip, never
// shared with it.
func (c *Client) encode(batch []*report.Report) ([]byte, error) {
	set := &report.Set{NumSites: c.numSites, NumPreds: c.numPreds, Reports: batch}
	buf := encodeBufs.Get().(*bytes.Buffer)
	defer encodeBufs.Put(buf)
	buf.Reset()
	var err error
	if c.gzipOn {
		err = report.Gzip(buf, set.MarshalBinary)
	} else {
		err = set.MarshalBinary(buf)
	}
	if err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
}

// send encodes one batch and POSTs it, retrying transient failures.
func (c *Client) send(ctx context.Context, batch []*report.Report) error {
	payload, err := c.encode(batch)
	if err != nil {
		return err
	}

	// A batch id, stable across retry attempts, lets the server
	// recognize re-deliveries: a POST can land server-side while the
	// response is lost (timeout, connection reset), and without the id
	// the retry would ingest the whole batch a second time.
	err = c.deliver(ctx, "/v1/reports", "application/x-cbi-reports",
		payload, len(batch), randomID())
	if err != nil {
		return fmt.Errorf("collector: submitting batch of %d: %v", len(batch), err)
	}
	return nil
}

// PushMerge ships a counter snapshot plus its run window — canonical
// run-log records with their routing-key hashes (keys[i] belongs to
// recs[i]; nil when unknown) — to the collector's /v1/merge endpoint as
// one gzip'd merge segment, with the same retry/dedup discipline as
// report batches. It is how a shard (or an offline reducer) folds its
// state into a peer; the keys keep the runs movable by a later resize.
func (c *Client) PushMerge(ctx context.Context, snap *corpus.AggSnapshot, recs [][]byte, keys []uint64) error {
	var buf bytes.Buffer
	err := report.Gzip(&buf, func(gz io.Writer) error {
		return corpus.WriteMergeSegmentRecords(gz, snap, snap.NumSites, snap.NumPreds, recs, keys)
	})
	if err != nil {
		return err
	}
	err = c.deliver(ctx, "/v1/merge", "application/x-cbi-merge",
		buf.Bytes(), len(recs), randomID())
	if err != nil {
		return fmt.Errorf("collector: pushing merge of %d runs: %v", len(recs), err)
	}
	return nil
}

// deliver POSTs one gzip'd payload with retries: exponential backoff
// doubling from baseBackoff, overridden by a server Retry-After hint on
// 429/503, capped at maxBackoff.
func (c *Client) deliver(ctx context.Context, path, contentType string, payload []byte, n int, batchID string) error {
	backoff := c.baseBackoff
	for attempt := 0; ; attempt++ {
		retryable, err := c.post(ctx, path, contentType, payload, n, batchID)
		if err == nil {
			return nil
		}
		if !retryable || attempt >= c.maxRetries {
			return err
		}
		c.retries.Add(1)
		delay := backoff
		// An explicit Retry-After from a 429/503 is the server telling
		// us when capacity returns; honor it (even zero — "now") rather
		// than guessing with backoff.
		if he, ok := err.(*httpError); ok && he.hasRetryAfter &&
			(he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable) {
			delay = he.retryAfter
		}
		if delay > c.maxBackoff {
			delay = c.maxBackoff
		}
		backoff *= 2
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// httpError is a non-2xx response; it keeps the Retry-After hint.
type httpError struct {
	status        int
	body          string
	retryAfter    time.Duration
	hasRetryAfter bool
}

func (e *httpError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.status, e.body)
}

// parseRetryAfter handles both RFC 9110 forms: delta-seconds and an
// HTTP-date.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		d := at.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// post performs one POST attempt; the bool reports retryability.
func (c *Client) post(ctx context.Context, path, contentType string, payload []byte, n int, batchID string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+path, bytes.NewReader(payload))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", contentType)
	if batchID != "" {
		req.Header.Set("X-CBI-Batch-ID", batchID)
	}
	if c.clientID != "" {
		req.Header.Set("X-CBI-Client-ID", c.clientID)
	}
	if c.Key != "" {
		req.Header.Set("Authorization", "Bearer "+c.Key)
	}
	if c.gzipOn || path == "/v1/merge" {
		req.Header.Set("Content-Encoding", "gzip")
	}
	if p := c.plan.Load(); p != nil {
		req.Header.Set("X-CBI-Plan-Version", strconv.FormatUint(p.Version, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Network-level failures (refused, reset, timeout) are the
		// retryable case a flaky deployment hits constantly.
		return true, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		c.submitted.Add(int64(n))
		return false, nil
	}
	he := &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(body))}
	he.retryAfter, he.hasRetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	retryable := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
	return retryable, he
}

// Stats fetches GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.getJSON(ctx, "/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Scores fetches the live top-k ranking from GET /v1/scores.
func (c *Client) Scores(ctx context.Context, k int) ([]ScoreEntry, error) {
	var out []ScoreEntry
	if err := c.getJSON(ctx, fmt.Sprintf("/v1/scores?k=%d", k), &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Predictors fetches the live cause-isolation ranking from
// GET /v1/predictors: at most k ranked predictors (0 = no cap), each
// with at most affinityK affinity entries (0 = none).
func (c *Client) Predictors(ctx context.Context, k, affinityK int) ([]PredictorEntry, error) {
	var out []PredictorEntry
	path := fmt.Sprintf("/v1/predictors?k=%d&affinity=%d", k, affinityK)
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// EnginePredictors fetches GET /v1/predictors?engine=<name>: the named
// scoring engine's ranked predicate list (k caps it, 0 = no cap). The
// default engine's richer entries — thermometers, affinity lists —
// are fetched with Predictors instead. An unknown engine surfaces the
// server's 400, which names the registered engines.
func (c *Client) EnginePredictors(ctx context.Context, engine string, k int) ([]EngineEntry, error) {
	var out []EngineEntry
	path := fmt.Sprintf("/v1/predictors?engine=%s&k=%d", url.QueryEscape(engine), k)
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Compare fetches GET /v1/compare: each named engine's top-k ranking
// over the same run window plus pairwise rank agreement.
func (c *Client) Compare(ctx context.Context, engines []string, k int) (*CompareResponse, error) {
	var out CompareResponse
	path := fmt.Sprintf("/v1/compare?engines=%s&k=%d", url.QueryEscape(strings.Join(engines, ",")), k)
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthy reports whether GET /healthz returns 200.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// FetchPlan fetches the current sampling plan from GET /v1/plan,
// conditionally: when the client already holds a plan, the request
// carries `?since=<version>` and If-None-Match, and a 304 (plan
// unchanged) returns (current, false, nil) without a body transfer.
// A newly fetched plan is remembered: CurrentPlan returns it and every
// subsequent batch is stamped with its version.
func (c *Client) FetchPlan(ctx context.Context) (p *plan.Plan, changed bool, err error) {
	cur := c.plan.Load()
	path := "/v1/plan"
	if cur != nil {
		path = fmt.Sprintf("/v1/plan?since=%d", cur.Version)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return cur, false, err
	}
	if cur != nil {
		req.Header.Set("If-None-Match", cur.ETag())
	}
	if c.clientID != "" {
		req.Header.Set("X-CBI-Client-ID", c.clientID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return cur, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		io.Copy(io.Discard, resp.Body)
		return cur, false, nil
	case http.StatusOK:
		next, err := plan.Decode(resp.Body, c.numSites)
		if err != nil {
			return cur, false, err
		}
		// Keep the newest plan even if responses race out of order.
		if cur != nil && next.Version <= cur.Version {
			return cur, false, nil
		}
		c.plan.Store(next)
		return next, true, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return cur, false, fmt.Errorf("collector: GET %s: %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
}

// CurrentPlan returns the most recently fetched sampling plan (nil
// before the first successful FetchPlan).
func (c *Client) CurrentPlan() *plan.Plan { return c.plan.Load() }

// PlanFunc adapts the client's current plan to the harness's
// Config.Plan hook: it returns the fetched plan's version and rates
// (0, nil before the first fetch) without any network traffic — pair
// it with FollowPlan or explicit FetchPlan calls to keep it fresh.
func (c *Client) PlanFunc() func() (version uint64, rates []float64) {
	return func() (uint64, []float64) {
		p := c.plan.Load()
		if p == nil {
			return 0, nil
		}
		return p.Version, p.Rates
	}
}

// FollowPlan polls /v1/plan every interval (conditionally, so an
// unchanged plan costs a 304) until the returned stop function is
// called or ctx is done. Fetch errors are transient by construction —
// the client just keeps its current plan — so they are not reported.
func (c *Client) FollowPlan(ctx context.Context, every time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-done:
				return
			case <-t.C:
				c.FetchPlan(ctx)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("collector: GET %s: %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
