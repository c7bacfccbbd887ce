package main

import "testing"

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkFoo/bar-4   1000   52.8 ns/op   16 B/op   1 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if r.Name != "BenchmarkFoo/bar" || r.Iterations != 1000 || r.NsPerOp != 52.8 ||
		r.BytesPerOp != 16 || r.AllocsPerOp != 1 {
		t.Fatalf("parsed %+v", r)
	}
	if r.Metrics != nil {
		t.Fatalf("unexpected metrics %v", r.Metrics)
	}
}

func TestParseBenchLineCustomMetrics(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkFig5MillionNode-8   1   42.5e9 ns/op   631.5 peak-rss-MiB   183 widgets/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if r.Metrics["peak-rss-MiB"] != 631.5 || r.Metrics["widgets/op"] != 183 {
		t.Fatalf("custom metrics not captured: %+v", r.Metrics)
	}
}

func TestParseBenchLineRejectsMalformed(t *testing.T) {
	if _, ok := parseBenchLine("BenchmarkShort"); ok {
		t.Fatal("truncated line accepted")
	}
	if _, ok := parseBenchLine("BenchmarkFoo-4 notanumber 5 ns/op"); ok {
		t.Fatal("bad iteration count accepted")
	}
}
