package report

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

// gzipAt compresses data with the standard library at the given level.
func gzipAt(t testing.TB, level int, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(data)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gunzipAll(t testing.TB, body []byte) ([]byte, error) {
	t.Helper()
	zr, err := Gunzip(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// TestGzipInteroperates pins the format-compatibility the level change
// rests on: the pooled reader inflates streams written at any level by
// the standard library, and the standard library inflates what the
// pooled writer produces.
func TestGzipInteroperates(t *testing.T) {
	data := bytes.Repeat([]byte("sites 0 2 5 preds 1 4 5 9 | "), 500)
	for _, level := range []int{gzip.DefaultCompression, gzip.BestCompression, gzip.BestSpeed, gzip.HuffmanOnly, gzip.NoCompression} {
		got, err := gunzipAll(t, gzipAt(t, level, data))
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("level %d: pooled reader inflated %d bytes, err %v", level, len(got), err)
		}
	}
	var buf bytes.Buffer
	if err := Gzip(&buf, func(w io.Writer) error { _, err := w.Write(data); return err }); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(zr); err != nil || !bytes.Equal(got, data) {
		t.Errorf("standard reader inflated %d bytes of pooled output, err %v", len(got), err)
	}
}

// TestGzipPoolSurvivesFailures walks the codec through every way a use
// can go wrong and checks the next use is unaffected: a reader that
// failed on its header, one closed over a truncated stream, one closed
// twice, and a writer whose fill failed midway all go back to the pool
// in a state Reset repairs.
func TestGzipPoolSurvivesFailures(t *testing.T) {
	data := bytes.Repeat([]byte("feedback report "), 4096)
	good := gzipAt(t, gzip.DefaultCompression, data)
	check := func(after string) {
		t.Helper()
		if got, err := gunzipAll(t, good); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("after %s: inflated %d bytes, err %v", after, len(got), err)
		}
		var buf bytes.Buffer
		if err := Gzip(&buf, func(w io.Writer) error { _, err := w.Write(data); return err }); err != nil {
			t.Fatalf("after %s: Gzip: %v", after, err)
		}
		if got, err := gunzipAll(t, buf.Bytes()); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("after %s: round trip gave %d bytes, err %v", after, len(got), err)
		}
	}
	check("nothing")

	if _, err := Gunzip(bytes.NewReader([]byte("not gzip at all"))); err == nil {
		t.Fatal("bad header: expected an error")
	}
	check("a bad header")

	if got, err := gunzipAll(t, good[:len(good)/2]); err == nil {
		t.Fatalf("truncated stream inflated cleanly to %d bytes", len(got))
	}
	check("a truncated stream")

	zr, err := Gunzip(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	zr.Close()
	zr.Close() // a second Close must not pool the reader a second time
	a, err := Gunzip(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Gunzip(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("double Close handed one reader to two holders")
	}
	a.Close()
	b.Close()
	check("a double Close")

	boom := errors.New("boom")
	err = Gzip(io.Discard, func(w io.Writer) error {
		w.Write(data[:1000])
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Gzip returned %v, want the fill error", err)
	}
	check("a failed fill")
}

// TestGzipPoolConcurrent has many goroutines share the pools, each
// round-tripping its own payload: under -race a writer or reader handed
// to two holders at once is a reported race, and without it a wrong
// payload.
func TestGzipPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				want := bytes.Repeat([]byte(fmt.Sprintf("goroutine %d round %d;", g, i)), 200+g)
				var buf bytes.Buffer
				if err := Gzip(&buf, func(w io.Writer) error { _, err := w.Write(want); return err }); err != nil {
					t.Error(err)
					return
				}
				if got, err := gunzipAll(t, buf.Bytes()); err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d round %d: got %d bytes, err %v", g, i, len(got), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
