package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// stackFixture is a fixed set of stacks (leaf first) with the bucket
// the rule must put each in.
var stackFixture = []struct {
	stack []string
	want  string
}{
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "gc"},
	{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "onionbots/internal/tor.(*Network).getWire"}, "gc"},
	{[]string{"crypto/internal/fips140/sha256.blockAVX2", "crypto/sha256.(*Digest).Write", "onionbots/internal/pow.digest"}, "crypto"},
	{[]string{"vendor/golang.org/x/crypto/chacha20.(*Cipher).XORKeyStream", "onionbots/internal/botcrypto.Seal"}, "crypto"},
	{[]string{"runtime.memmove", "crypto/aes.(*Block).Encrypt", "onionbots/internal/tor.ctrStream.xorBody"}, "tor"},
	{[]string{"runtime.mapaccess2_fast64", "onionbots/internal/graph.(*Graph).Degree", "onionbots/internal/ddsr.(*Overlay).highestDegreePeer"}, "graph"},
	{[]string{"onionbots/internal/ddsr.sortInts", "onionbots/internal/graph.(*Graph).AppendNeighbors"}, "ddsr"},
	{[]string{"onionbots/internal/botcrypto/legacy.Audit"}, "botcrypto"},
	{[]string{"onionbots/internal/experiment.init.func3.1", "onionbots/internal/experiment.runTask"}, "experiment"},
	{[]string{"onionbots/internal/stats.(*Welford).Add", "onionbots/internal/experiment.(*Sweep).appendStatRows"}, "other"},
	{[]string{"encoding/json.(*encodeState).marshal", "onionbots/perfbench.execute"}, "runtime"},
	{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
	{nil, "runtime"},
}

func TestBucketOfFixture(t *testing.T) {
	known := map[string]bool{}
	for _, b := range bucketNames() {
		known[b] = true
	}
	for _, c := range stackFixture {
		got := bucketOf(c.stack)
		if got != c.want {
			t.Errorf("bucketOf(%q) = %s, want %s", c.stack, got, c.want)
		}
		if !known[got] {
			t.Errorf("bucket %s is not in bucketNames", got)
		}
	}
}

// pbWriter encodes the few protobuf shapes a pprof profile uses.
type pbWriter struct{ bytes.Buffer }

func (w *pbWriter) varint(field int, v uint64) {
	w.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	w.Write(binary.AppendUvarint(nil, v))
}

func (w *pbWriter) bytes(field int, b []byte) {
	w.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	w.Write(binary.AppendUvarint(nil, uint64(len(b))))
	w.Write(b)
}

func (w *pbWriter) packed(field int, vs []uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	w.bytes(field, b)
}

// encodeFixture builds a gzipped pprof profile holding the stack
// fixture, sample i costing (i+1) ms. Each frame is its own location,
// except that the first two frames of every stack share one location
// as inlined lines, and sample location ids alternate between packed
// and unpacked encoding, as runtime/pprof writes them.
func encodeFixture(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIndex := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIndex[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIndex[s] = uint64(len(strs) - 1)
		return strIndex[s]
	}
	var p pbWriter
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pbWriter
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		p.bytes(1, m.Bytes())
	}
	funcs := map[string]uint64{}
	var nextLoc uint64
	for i, c := range stackFixture {
		var locs []uint64
		for j := 0; j < len(c.stack); {
			inline := c.stack[j : j+1]
			if j == 0 && len(c.stack) > 1 {
				inline = c.stack[:2]
			}
			var loc pbWriter
			nextLoc++
			loc.varint(1, nextLoc)
			for _, fn := range inline {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pbWriter
					f.varint(1, id)
					f.varint(2, intern(fn))
					p.bytes(5, f.Bytes())
				}
				var line pbWriter
				line.varint(1, id)
				loc.bytes(4, line.Bytes())
			}
			p.bytes(4, loc.Bytes())
			locs = append(locs, nextLoc)
			j += len(inline)
		}
		var s pbWriter
		if i%2 == 0 {
			s.packed(1, locs)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, []uint64{1, uint64(i+1) * 1e6})
		p.bytes(2, s.Bytes())
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestParseProfileFixture(t *testing.T) {
	p, err := parseProfile(encodeFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(stackFixture) {
		t.Fatalf("parsed %d samples, want %d", len(p.samples), len(stackFixture))
	}
	want := map[string]float64{}
	wantTotal := 0.0
	for i, c := range stackFixture {
		got := p.samples[i]
		if len(got.stack) != len(c.stack) {
			t.Fatalf("sample %d: stack %q, want %q", i, got.stack, c.stack)
		}
		for j := range c.stack {
			if got.stack[j] != c.stack[j] {
				t.Fatalf("sample %d: stack %q, want %q", i, got.stack, c.stack)
			}
		}
		sec := float64(i+1) / 1e3
		want[c.want] += sec
		wantTotal += sec
	}
	buckets, total := cpuBuckets(p)
	if math.Abs(total-wantTotal) > 1e-12 {
		t.Errorf("total %g, want %g", total, wantTotal)
	}
	sum := 0.0
	for name, sec := range buckets {
		sum += sec
		if math.Abs(sec-want[name]) > 1e-12 {
			t.Errorf("bucket %s = %g, want %g", name, sec, want[name])
		}
	}
	if math.Abs(sum-total) > 1e-12 {
		t.Errorf("buckets sum to %g, profile total %g", sum, total)
	}
}

// TestParseProfileRuntime parses a profile runtime/pprof really wrote
// while hashing, and checks the buckets account for all of it.
func TestParseProfileRuntime(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<16)
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		sum := sha256.Sum256(data)
		data[0] = sum[0]
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	buckets, total := cpuBuckets(p)
	if total <= 0 {
		t.Fatal("profile holds no CPU time")
	}
	sumBuckets := 0.0
	for _, sec := range buckets {
		sumBuckets += sec
	}
	if math.Abs(sumBuckets-total) > 1e-9 {
		t.Errorf("buckets sum to %g, profile total %g", sumBuckets, total)
	}
	if buckets["crypto"] < total/2 {
		t.Errorf("crypto bucket %g of %g s, want most of a SHA-256 loop", buckets["crypto"], total)
	}
}
