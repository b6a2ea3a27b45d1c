package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cbi/internal/collector"
	"cbi/internal/report"
)

// loadgen is the single load generator: closed-loop senders, each a
// goroutine with its own connection, shipping corpus-stream batches
// through collector.Client. The closed loop measures capacity — the
// client library blocks on flush and the router sheds with 429 beyond
// its queue; an open-loop rate sweep belongs to a later `cbi loadgen`.
// Callers never ask for more senders than the box has processors.
type loadgen struct {
	c       *corpus
	tr      *tracer
	batch   int
	bulk    bool // ship each batch with SubmitSet instead of Add
	base    *http.Transport
	senders []*sender
	// next is the first stream index the next run call ships.
	next int
}

// sender is one closed loop. It rotates over its share of the client
// identities, so a router spreads its batches over the shards.
type sender struct {
	clients []*collector.Client
	pt      *postTripper
	th      *thinner
	// bufs are reused for every batch: the Client keeps no reference to
	// a batch once the call that ships it returns.
	bufs    []*report.Report
	shipped int
}

func newLoadgen(c *corpus, tr *tracer, url string, senders, identities, batch int, bulk bool) *loadgen {
	l := &loadgen{
		c: c, tr: tr, batch: batch, bulk: bulk,
		base: http.DefaultTransport.(*http.Transport).Clone(),
	}
	for s := 0; s < senders; s++ {
		sd := &sender{pt: &postTripper{base: l.base, t: tr}, th: c.newThinner()}
		hc := &http.Client{Transport: sd.pt, Timeout: 30 * time.Second}
		for id := s; id < identities; id += senders {
			sd.clients = append(sd.clients, collector.NewClient(url, c.numSites, c.numPreds,
				collector.WithBatchSize(batch), collector.WithHTTPClient(hc),
				collector.WithClientID(fmt.Sprintf("bench-client-%03d", id))))
		}
		for i := 0; i < batch; i++ {
			sd.bufs = append(sd.bufs, &report.Report{})
		}
		l.senders = append(l.senders, sd)
	}
	return l
}

// run has every sender ship perSender batches. It returns each batch's
// ack time — how long the sender was blocked in the Client call that
// ships the batch: encode + gzip + POST + 202 — and how many batches
// failed after the client's own retries. Sender s ships, as its batch b,
// the stream reports from next + (b*senders + s)*batch on, so one run
// covers a contiguous range of the stream.
func (l *loadgen) run(ctx context.Context, perSender int) (acksMS []float64, failed int64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s, sd := range l.senders {
		wg.Add(1)
		go func(s int, sd *sender) {
			defer wg.Done()
			var acks []float64
			var bad int64
			for b := 0; b < perSender; b++ {
				g := l.next + (b*len(l.senders)+s)*l.batch
				for i, r := range sd.bufs {
					sd.th.thin(g+i, r)
				}
				cl := sd.clients[sd.shipped%len(sd.clients)]
				sd.shipped++
				start := time.Now()
				err := sd.ship(ctx, cl, l)
				end := time.Now()
				l.tr.record(span{Name: spanFlush, Trace: sd.pt.lastBatch}, start, end)
				acks = append(acks, ms(end.Sub(start)))
				if err != nil {
					bad++
				}
			}
			mu.Lock()
			acksMS = append(acksMS, acks...)
			failed += bad
			mu.Unlock()
		}(s, sd)
	}
	wg.Wait()
	l.next += perSender * len(l.senders) * l.batch
	return acksMS, failed
}

func (sd *sender) ship(ctx context.Context, cl *collector.Client, l *loadgen) error {
	if l.bulk {
		return cl.SubmitSet(ctx, &report.Set{NumSites: l.c.numSites, NumPreds: l.c.numPreds, Reports: sd.bufs})
	}
	for _, r := range sd.bufs {
		// The Add that fills the batch ships it; the others only buffer.
		if err := cl.Add(ctx, r); err != nil {
			return err
		}
	}
	return nil
}

// acked is the number of reports the servers acknowledged.
func (l *loadgen) acked() (n int64) {
	for _, sd := range l.senders {
		for _, cl := range sd.clients {
			n += cl.Submitted()
		}
	}
	return n
}

func (l *loadgen) retries() (n int64) {
	for _, sd := range l.senders {
		for _, cl := range sd.clients {
			n += cl.Retries()
		}
	}
	return n
}

func (l *loadgen) close() { l.base.CloseIdleConnections() }
