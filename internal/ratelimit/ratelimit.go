// Package ratelimit provides a per-key token-bucket rate limiter for
// the write endpoints of the collector and the shard router. It lives
// in its own package because both sides need it and the collector
// cannot import the shard package (the gateway imports the collector).
//
// Each key gets an independent bucket of `burst` tokens refilled at
// `rate` tokens per second. A request costs one token; when the bucket
// is empty the limiter reports how long until the next token so the
// caller can emit a precise Retry-After.
package ratelimit

import (
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxKeys bounds the number of tracked buckets so an attacker cycling
// through fabricated keys cannot grow the table without bound. When the
// table is full, the stalest bucket (oldest refill time) is recycled —
// a full bucket for its new owner, which only ever errs permissive.
const maxKeys = 1 << 14

// PerKey is a per-key token-bucket limiter. The zero value is not
// usable; call New.
type PerKey struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time // last refill
}

// New builds a limiter granting `rate` requests per second per key with
// bursts of up to `burst`. A non-positive burst defaults to
// max(1, 2*rate). A non-positive rate returns nil, which every method
// treats as "no limiting".
func New(rate float64, burst int) *PerKey {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b <= 0 {
		b = 2 * rate
		if b < 1 {
			b = 1
		}
	}
	return &PerKey{rate: rate, burst: b, buckets: make(map[string]*bucket)}
}

// Allow spends one token from key's bucket at time now. When the bucket
// is empty it returns ok=false and how long until a token accrues — the
// value to surface as Retry-After (rounded up to a whole second by the
// caller). A nil limiter always allows.
func (l *PerKey) Allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxKeys {
			l.evictStalest()
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens += elapsed * l.rate
			if b.tokens > l.burst {
				b.tokens = l.burst
			}
			b.last = now
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / l.rate * float64(time.Second))
}

// AllowRequest is Allow for an HTTP write endpoint. The bucket key is the
// presented Authorization header when there is one (each API key gets its
// own budget) and the peer host otherwise. On a limited request it writes
// the 429 itself, with a Retry-After naming when the next token accrues,
// and returns false.
func (l *PerKey) AllowRequest(w http.ResponseWriter, r *http.Request) bool {
	if l == nil {
		return true
	}
	key := r.Header.Get("Authorization")
	if key == "" {
		key = r.RemoteAddr
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			key = host
		}
	}
	ok, retry := l.Allow(key, time.Now())
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(RetrySeconds(retry)))
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
	}
	return ok
}

// evictStalest recycles the bucket with the oldest refill time.
// Callers hold mu.
func (l *PerKey) evictStalest() {
	var stalest string
	var when time.Time
	first := true
	for k, b := range l.buckets {
		if first || b.last.Before(when) {
			stalest, when, first = k, b.last, false
		}
	}
	delete(l.buckets, stalest)
}

// RetrySeconds converts a retry-after duration to the whole-second
// value HTTP Retry-After headers carry, never below 1.
func RetrySeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
