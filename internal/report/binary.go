// Binary wire codec for feedback reports — the compact format clients
// use to ship batches to a collector (and a denser at-rest alternative
// to the text codec).
//
// Layout (all integers are unsigned LEB128 varints):
//
//	magic   "CBR1" (4 bytes)
//	header  numSites numPreds numReports
//	record  flags(1 byte: bit0 = failed)
//	        len(sites)  sites delta-encoded (first absolute, then gaps)
//	        len(preds)  preds delta-encoded
//
// Site and predicate lists are strictly ascending, so every gap after
// the first element is at least 1; delta encoding keeps typical entries
// to one or two bytes even in large predicate spaces. The decoder
// (the slice walker in walk.go, the only one) validates monotonicity
// and range, and never panics or over-allocates on malformed input
// (fuzz-verified by FuzzReportRoundTripBinary).
//
// The per-report record encoding is exposed on its own as
// AppendRecord/DecodeRecord: the collector's run-level membership log
// stores each retained run as exactly one such record (fuzz-verified by
// FuzzRunLogRoundTrip), so the wire format and the run log cannot
// drift apart.
package report

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
)

// binaryMagic identifies the binary report format, version 1.
const binaryMagic = "CBR1"

// maxDim bounds the site/predicate index spaces so ids fit in int32 and
// a hostile header cannot demand absurd allocations.
const maxDim = 1 << 30

// MarshalBinary writes the set in the compact binary wire format.
func (s *Set) MarshalBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		bw.Write(tmp[:n])
	}
	putUvarint(uint64(s.NumSites))
	putUvarint(uint64(s.NumPreds))
	putUvarint(uint64(len(s.Reports)))
	var rec []byte
	for _, r := range s.Reports {
		rec = AppendRecord(rec[:0], r)
		bw.Write(rec)
	}
	return bw.Flush()
}

// AppendRecord appends the binary record encoding of one report to dst
// and returns the extended slice: a flags byte (bit0 = failed) followed
// by the delta/varint-encoded ObservedSites and TruePreds lists. This
// is exactly the per-report layout of MarshalBinary.
func AppendRecord(dst []byte, r *Report) []byte {
	var flags byte
	if r.Failed {
		flags |= 1
	}
	// Grow once to the worst case (5 varint bytes per id) and write by
	// index: this encoder is the per-report ingest hot path, and the
	// per-varint append-through-a-scratch-buffer it replaced was the
	// single biggest CPU sink in the fold.
	need := 1 + 2*binary.MaxVarintLen64 +
		binary.MaxVarintLen32*(len(r.ObservedSites)+len(r.TruePreds))
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[:cap(dst)]
	n := len(dst)
	buf[n] = flags
	n++
	for _, list := range [2][]int32{r.ObservedSites, r.TruePreds} {
		n += binary.PutUvarint(buf[n:], uint64(len(list)))
		prev := int32(0)
		for _, v := range list {
			d := uint64(uint32(v - prev))
			prev = v
			// Ascending ids make most deltas tiny; the one-byte case
			// skips PutUvarint's loop entirely.
			if d < 0x80 {
				buf[n] = byte(d)
				n++
			} else {
				n += binary.PutUvarint(buf[n:], d)
			}
		}
	}
	return buf[:n]
}

// UnmarshalBinary parses a set written by MarshalBinary. r is read to
// EOF and must hold exactly the set. It is safe on arbitrary
// (malformed, truncated, hostile) input: it returns an error rather
// than panicking, and allocation is bounded by the input size. The set
// owns its buffers; there is nothing to release.
func UnmarshalBinary(r io.Reader) (*Set, error) {
	var l Lease
	return l.decode(r)
}

// EncodeRecords returns each report's canonical record (its
// AppendRecord bytes), index-aligned with reports — the form the WAL,
// the run log and the records-direct segment writers all share, so one
// encoding pass serves every consumer.
func EncodeRecords(reports []*Report) [][]byte {
	recs := make([][]byte, len(reports))
	// AppendRecord sizes a fresh buffer for the worst case (five bytes
	// per id); encoding through one scratch and keeping exact-size
	// copies allocates a fifth of that.
	var scratch []byte
	for i, r := range reports {
		scratch = AppendRecord(scratch[:0], r)
		recs[i] = bytes.Clone(scratch)
	}
	return recs
}

// MarshalRecords writes the binary wire format directly from
// pre-encoded per-report records (canonical AppendRecord encodings,
// e.g. the collector run log's retained bytes). The output is
// byte-identical to MarshalBinary over the decoded reports — pinned by
// TestRecordMatchesSetEncoding — which lets snapshot/export paths skip
// a decode → re-encode round trip.
func MarshalRecords(w io.Writer, numSites, numPreds int, recs [][]byte) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		bw.Write(tmp[:n])
	}
	putUvarint(uint64(numSites))
	putUvarint(uint64(numPreds))
	putUvarint(uint64(len(recs)))
	for _, rec := range recs {
		bw.Write(rec)
	}
	return bw.Flush()
}
