// Pooled gzip: the one place the system constructs gzip writers and
// readers (TestGzipOnlyInCodec at the repository root enforces it).
// Every compressed byte — client batches, merge pushes, snapshot and
// export responses, checkpoint files — goes through Gzip at
// one level, and every inflated byte through Gunzip. The package is
// client-importable on purpose: the deployed client pays for
// compression on every batch, so it shares the policy.
//
// The pools are sync.Pools, so idle writers (~0.6 MB each) and readers
// are collected by the GC rather than pinned. Any gzip level inflates
// with any reader, so files and bodies written before this policy (or
// by other implementations at other levels) load unchanged.
package report

import (
	"compress/gzip"
	"io"
	"sync"
)

// gzipLevel is the compression level of everything the system writes.
// BestSpeed costs roughly an eighth of the default level's CPU on
// report batches for about a third more bytes (table in DESIGN §13);
// client CPU is the paper's scarce resource and checkpoint CPU is the
// ingest ring's latency tail, so CPU wins.
const gzipLevel = gzip.BestSpeed

var (
	gzipWriters sync.Pool // *gzip.Writer at gzipLevel
	gzipReaders sync.Pool // *GzipReader, closed
)

// Gzip writes what fill produces to w as one gzip stream, using a
// pooled writer that is closed and back in the pool before Gzip
// returns — fill must not retain its argument.
func Gzip(w io.Writer, fill func(io.Writer) error) error {
	zw, _ := gzipWriters.Get().(*gzip.Writer)
	if zw == nil {
		// The only error is an invalid level, and gzipLevel is valid.
		zw, _ = gzip.NewWriterLevel(w, gzipLevel)
	} else {
		zw.Reset(w)
	}
	err := fill(zw)
	if err == nil {
		err = zw.Close()
	}
	// An unclosed writer (fill failed) is still poolable: Reset
	// discards its pending state.
	gzipWriters.Put(zw)
	return err
}

// GzipReader is a pooled gzip reader. Close returns it to the pool, so
// it must be called exactly when the holder is done reading — once on
// every path — and the reader not touched afterwards.
type GzipReader struct {
	zr     *gzip.Reader
	closed bool
}

// Gunzip returns a pooled reader inflating r, or the gzip header error.
func Gunzip(r io.Reader) (*GzipReader, error) {
	g, _ := gzipReaders.Get().(*GzipReader)
	if g == nil {
		zr, err := gzip.NewReader(r)
		if err != nil {
			return nil, err
		}
		return &GzipReader{zr: zr}, nil
	}
	if err := g.zr.Reset(r); err != nil {
		gzipReaders.Put(g)
		return nil, err
	}
	g.closed = false
	return g, nil
}

func (g *GzipReader) Read(p []byte) (int, error) { return g.zr.Read(p) }

// Close releases the reader to the pool. Repeated calls by the same
// holder are no-ops.
func (g *GzipReader) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	err := g.zr.Close()
	gzipReaders.Put(g)
	return err
}
