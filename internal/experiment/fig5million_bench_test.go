//go:build unix

package experiment

import (
	"runtime"
	"syscall"
	"testing"
)

// BenchmarkFig5MillionNode is the tentpole exit criterion made routine:
// one n=10^6 Fig 5 grid point — build a million-node 10-regular DDSR
// overlay and its no-repair control, churn both down to a residue
// through the full deletion sweep, measuring components/centrality/
// diameter along the way. Beyond wall clock it reports the process's
// peak resident set (peak-rss-MiB, getrusage ru_maxrss) so the bench
// artifact records the memory high-water mark at million-bot scale.
// The peak covers the whole test process, so run this benchmark on its
// own, with -benchtime=1x: one iteration IS the experiment (the
// Makefile bench target does both; the point costs tens of seconds,
// not nanoseconds).
func BenchmarkFig5MillionNode(b *testing.B) {
	const n = 1_000_000
	cfg := Fig5Config{
		N: n,
		K: 10,
		// 8 measurement stops: each snapshot is an O(n·K) CSR build plus
		// BFS sweeps, so sampling density is where the wall-clock budget
		// goes. The paper's curves need ~50 points; the routine grid
		// point needs enough to see the partition knee.
		MeasureEvery:   n / 8,
		DiameterSweeps: 2,
		Seed:           2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comps, _, _, err := RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(comps.Series) != 2 {
			b.Fatalf("expected 2 series, got %d", len(comps.Series))
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	peak := float64(ru.Maxrss) * 1024 // Linux and the BSDs report KiB
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		peak = float64(ru.Maxrss) // bytes
	}
	b.ReportMetric(peak/(1<<20), "peak-rss-MiB")
}
