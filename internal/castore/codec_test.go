package castore

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// codecPayloads returns payloads shaped like the store's real traffic
// (JSON spec results of a few KB, a large manifest) plus edge cases,
// ordered large-first so later Puts reuse a writer whose window and
// hash chains still hold an earlier, longer stream.
func codecPayloads() [][]byte {
	var big strings.Builder
	for i := 0; big.Len() < 256<<10; i++ {
		fmt.Fprintf(&big, `{"rank":%d,"startup_sec":%d.%06d,"node":"n%03d"},`, i, i%7, i*7919%1000000, i%97)
	}
	var spec strings.Builder
	for i := 0; spec.Len() < 3<<10; i++ {
		fmt.Fprintf(&spec, `{"import_sec":%d.%d},`, i, i*31%977)
	}
	bin := make([]byte, 4096)
	for i := range bin {
		bin[i] = byte(i * 131 % 251)
	}
	return [][]byte{
		[]byte(big.String()),
		[]byte(spec.String()),
		bin,
		[]byte("x"),
		{},
		[]byte(spec.String()[:1000]),
	}
}

// freshEntry is the entry file a Put of data must produce: the header
// line plus the encoding of a freshly constructed gzip.Writer.
func freshEntry(t *testing.T, schema string, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(formatVersion + " " + schema + " " + encGzip + "\n")
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPooledGzipEntriesMatchFreshWriter pins the on-disk bytes of the
// pooled codec path: every entry file written through a reused writer
// is byte-identical to a fresh gzip.NewWriter encoding of the same
// payload, and reads through reused readers — including readers that
// last failed on a corrupt stream — return the payload unchanged.
func TestPooledGzipEntriesMatchFreshWriter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	payloads := codecPayloads()
	for round := 0; round < 2; round++ {
		for i, data := range payloads {
			key := fmt.Sprintf("k%d-%d", round, i)
			if err := s.Put(testSchema, key, data); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, testSchema, key))
			if err != nil {
				t.Fatal(err)
			}
			if want := freshEntry(t, testSchema, data); !bytes.Equal(raw, want) {
				t.Fatalf("round %d payload %d (%d bytes): entry file differs from a fresh gzip.NewWriter encoding (%d vs %d bytes)",
					round, i, len(data), len(raw), len(want))
			}
		}
	}
	// A corrupt stream leaves its reader in an error state; the pool
	// must hand out readers that decode the next entry cleanly.
	corrupt(t, dir, testSchema, "broken", []byte("castore/1 "+testSchema+" gzip\n\x1f\x8b\x08\x00garbage"))
	for i, data := range payloads {
		if _, ok := s.Get(testSchema, "broken"); ok {
			t.Fatal("corrupt gzip entry served as a hit")
		}
		corrupt(t, dir, testSchema, "broken", []byte("castore/1 "+testSchema+" gzip\n\x1f\x8b\x08\x00garbage"))
		got, ok := s.Get(testSchema, fmt.Sprintf("k1-%d", i))
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("payload %d: read back %d bytes (hit %v), want %d", i, len(got), ok, len(data))
		}
	}
}

// TestPooledCodecsConcurrent hammers the shared codec pools from 16
// goroutines mixing Puts and Gets of distinct and shared keys; run
// under -race it also pins that no codec is used by two callers at
// once.
func TestPooledCodecsConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	payloads := codecPayloads()[1:] // skip the 256 KB one: keep -race quick
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				data := payloads[(g+i)%len(payloads)]
				own := fmt.Sprintf("g%d-%d", g, i)
				shared := fmt.Sprintf("shared-%d", (g+i)%len(payloads))
				for _, key := range []string{own, shared} {
					if err := s.Put(testSchema, key, data); err != nil {
						errs <- err
						return
					}
					got, ok := s.Get(testSchema, key)
					if !ok || !bytes.Equal(got, data) {
						errs <- fmt.Errorf("worker %d key %s: read back %d bytes (hit %v), want %d", g, key, len(got), ok, len(data))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, data := range payloads {
		key := fmt.Sprintf("shared-%d", i)
		raw, err := os.ReadFile(filepath.Join(dir, testSchema, key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, freshEntry(t, testSchema, data)) {
			t.Fatalf("%s: entry file differs from a fresh gzip.NewWriter encoding", key)
		}
	}
	if st := s.Stats(); st.Corruptions != 0 {
		t.Fatalf("concurrent codec use produced %d corruptions", st.Corruptions)
	}
}
