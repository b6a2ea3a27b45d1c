// The slice walker: record decoding over a []byte cursor. It validates
// exactly what the stream decoder (ReadRecord / UnmarshalBinary) does —
// known flags, list lengths within the dimension, strictly ascending
// in-range ids — but reads varints by index instead of one interface
// call per byte, and reports what the stream cannot: where each record
// ends and whether its bytes are canonical (byte-identical to
// AppendRecord over the decoded report), so callers that retain records
// can copy the wire span instead of re-encoding.
// FuzzReportRoundTripBinaryArena pins the two decoders to the same
// accept/reject decision and the same decoded ids on every input.
package report

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// walker is a cursor over buf. overlong is sticky: it records that some
// varint read since it was last cleared was not minimally encoded.
type walker struct {
	buf      []byte
	off      int
	overlong bool
}

// uvarint reads one varint, with the error cases of binary.ReadUvarint:
// io.EOF at the end of the buffer, io.ErrUnexpectedEOF inside a varint.
func (w *walker) uvarint() (uint64, error) {
	if w.off < len(w.buf) {
		if b := w.buf[w.off]; b < 0x80 {
			w.off++
			return uint64(b), nil
		}
	}
	v, n := binary.Uvarint(w.buf[w.off:])
	switch {
	case n > 0:
		w.off += n
		// A multi-byte varint ending in a zero byte carries no bits in
		// its last group: a shorter encoding exists.
		if w.buf[w.off-1] == 0 {
			w.overlong = true
		}
		return v, nil
	case n < 0:
		return 0, errVarintOverflow
	case w.off == len(w.buf):
		return 0, io.EOF
	default:
		return 0, io.ErrUnexpectedEOF
	}
}

// dim reads one of the set header's dimensions.
func (w *walker) dim(what string) (int, error) {
	v, err := w.uvarint()
	if err != nil {
		return 0, fmt.Errorf("report: binary %s: %v", what, err)
	}
	if v > maxDim {
		return 0, fmt.Errorf("report: binary %s %d exceeds limit", what, v)
	}
	return int(v), nil
}

// listLen reads a list length header and validates it against dim and
// against the bytes left — every id costs at least one byte, so the
// length bounds what a caller may allocate up front.
func (w *walker) listLen(dim int) (int, error) {
	n, err := w.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(dim) {
		return 0, fmt.Errorf("list length %d exceeds dimension %d", n, dim)
	}
	if n > uint64(len(w.buf)-w.off) {
		return 0, io.ErrUnexpectedEOF
	}
	return int(n), nil
}

// appendIDs decodes n delta-encoded ids onto dst, validating ascending
// order and range like appendDeltaList.
func (w *walker) appendIDs(dst []int32, n, dim int) ([]int32, error) {
	prev := int64(-1)
	for i := 0; i < n; i++ {
		var d uint64
		// Ascending ids make most deltas one byte; skip the call.
		if w.off < len(w.buf) && w.buf[w.off] < 0x80 {
			d = uint64(w.buf[w.off])
			w.off++
		} else {
			var err error
			if d, err = w.uvarint(); err != nil {
				return dst, err
			}
		}
		if d > uint64(dim) {
			return dst, fmt.Errorf("id delta %d out of range [0,%d)", d, dim)
		}
		v := int64(d)
		if prev >= 0 {
			if d == 0 {
				return dst, fmt.Errorf("non-ascending entry at index %d", i)
			}
			v += prev
		}
		if v >= int64(dim) {
			return dst, fmt.Errorf("id %d out of range [0,%d)", v, dim)
		}
		dst = append(dst, int32(v))
		prev = v
	}
	return dst, nil
}

// flags reads a record's flags byte and starts tracking whether the
// record's varints are canonical.
func (w *walker) flags() (failed bool, err error) {
	w.overlong = false
	if w.off == len(w.buf) {
		return false, fmt.Errorf("report: record flags: %v", io.EOF)
	}
	flags := w.buf[w.off]
	w.off++
	if flags > 1 {
		return false, fmt.Errorf("report: record: unknown flags %#x", flags)
	}
	return flags&1 != 0, nil
}

// list reads one length-prefixed id list onto ids; what names it in
// errors. A nil ids is allocated at exactly the list's length.
func (w *walker) list(ids []int32, dim int, what string) ([]int32, error) {
	n, err := w.listLen(dim)
	if err == nil {
		if ids == nil && n > 0 {
			ids = make([]int32, 0, n)
		}
		ids, err = w.appendIDs(ids, n, dim)
	}
	if err != nil {
		return ids, fmt.Errorf("report: record %s: %v", what, err)
	}
	return ids, nil
}

// AppendRecordIDs validates the record at the front of rec and appends
// its site ids, then its predicate ids, to ids; sites is how many site
// ids it appended. It allocates only through append on ids, so a caller
// walking many records into one reused slab allocates nothing per
// record.
func AppendRecordIDs(ids []int32, rec []byte, numSites, numPreds int) (out []int32, sites int, failed bool, err error) {
	w := walker{buf: rec}
	if failed, err = w.flags(); err != nil {
		return ids, 0, false, err
	}
	base := len(ids)
	if ids, err = w.list(ids, numSites, "sites"); err != nil {
		return ids, 0, false, err
	}
	sites = len(ids) - base
	if ids, err = w.list(ids, numPreds, "preds"); err != nil {
		return ids, 0, false, err
	}
	return ids, sites, failed, nil
}

// Walked describes how a decoded record sat in its buffer.
type Walked struct {
	// Len is the record's encoded length: it occupied buf[:Len].
	Len int
	// Canonical reports that buf[:Len] is byte-identical to
	// AppendRecord over the decoded report. Only an overlong varint
	// makes an accepted record non-canonical.
	Canonical bool
}

// DecodeRecord is ReadRecord over a byte slice: it decodes the record
// at the front of buf into a freshly allocated Report whose id lists
// are sized exactly, and says how the record sat in buf.
func DecodeRecord(buf []byte, numSites, numPreds int) (*Report, Walked, error) {
	w := walker{buf: buf}
	failed, err := w.flags()
	if err != nil {
		return nil, Walked{}, err
	}
	rep := &Report{Failed: failed}
	if rep.ObservedSites, err = w.list(nil, numSites, "sites"); err != nil {
		return nil, Walked{}, err
	}
	if rep.TruePreds, err = w.list(nil, numPreds, "preds"); err != nil {
		return nil, Walked{}, err
	}
	return rep, Walked{Len: w.off, Canonical: !w.overlong}, nil
}

// CanonicalRecord returns the canonical encoding of the report r that
// was decoded from the front of wire: the wire bytes themselves when
// they are canonical, a fresh AppendRecord encoding otherwise — so
// bytes the run log interns never depend on how a sender padded its
// varints.
func CanonicalRecord(wire []byte, rec Walked, r *Report) []byte {
	if rec.Canonical {
		return wire[:rec.Len:rec.Len]
	}
	return AppendRecord(nil, r)
}
