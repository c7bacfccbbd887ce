package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"onionbots/internal/experiment"
)

// gcSample reads the runtime's own garbage-collector counters.
type gcSample struct {
	cycles, allocBytes uint64
	cpuSeconds         float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{
		cycles:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		cpuSeconds: s[2].Value.Float64(),
	}
}

// heapSampler polls the bytes of live and not-yet-swept heap objects
// until stopped and keeps the highest reading: a heap peak from
// runtime/metrics, sampled, not a post-run snapshot.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(s)
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stop ends the sampling goroutine, waits for it, and returns the peak
// in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}

// traceResult is what the traced child reports.
type traceResult struct {
	WallS    float64            `json:"wall_s"`
	Digest   string             `json:"digest"`
	Metrics  map[string]float64 `json:"metrics"`
	Problems []string           `json:"problems"`
}

// traceRun runs a workload once under the CPU profiler with the
// runtime's GC counters read around it, then the Fig 5 and Fig 7
// replicas and the unit-cost probes (none of them profiled). tiny
// shrinks the workload for the smoke tests.
func traceRun(w *workload, seed uint64, tiny bool) (*traceResult, error) {
	gs, err := w.grids(seed, tiny)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	before := readGC()
	heap := startHeapSampler(10 * time.Millisecond)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	ex, err := execute(gs, 1)
	pprof.StopCPUProfile()
	heapPeak := heap.stop()
	after := readGC()
	if err != nil {
		return nil, err
	}

	res := &traceResult{WallS: ex.wall.Seconds(), Digest: ex.digest, Metrics: map[string]float64{}}
	res.Problems = append(res.Problems, ex.taskFailures()...)
	m := res.Metrics
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	buckets, total := cpuBuckets(p)
	for name, sec := range buckets {
		m[name+".cpu_s"] = sec
	}
	m["profile.cpu_s"] = total
	share := func(sec float64) float64 {
		if total == 0 {
			return 0
		}
		return sec / total
	}
	m["split.graph_ddsr_frac"] = share(buckets["graph"] + buckets["ddsr"])
	m["split.tor_frac"] = share(buckets["tor"])
	m["split.crypto_frac"] = share(buckets[bucketCrypto])
	m["gc.cycles"] = float64(after.cycles - before.cycles)
	m["gc.alloc_mib"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	m["gc.metrics_cpu_s"] = after.cpuSeconds - before.cpuSeconds
	m["gc.heap_peak_mib"] = float64(heapPeak) / (1 << 20)

	fig5Task, fig5Want, err := reference(ex, "fig5", seed)
	if err != nil {
		return nil, err
	}
	got5, sp5, err := replicaFig5(fig5Config(fig5Task.Params))
	if err != nil {
		return nil, fmt.Errorf("fig5 replica: %w", err)
	}
	if err := matchSeries(fig5Want, got5); err != nil {
		res.Problems = append(res.Problems, "fig5 replica: "+err.Error())
	}
	fig7Task, fig7Want, err := reference(ex, "fig7", seed)
	if err != nil {
		return nil, err
	}
	got7, sp7, err := replicaFig7(fig7Config(fig7Task.Params))
	if err != nil {
		return nil, fmt.Errorf("fig7 replica: %w", err)
	}
	if err := matchSeries(fig7Want, [][]experiment.Series{got7}); err != nil {
		res.Problems = append(res.Problems, "fig7 replica: "+err.Error())
	}
	probes, err := unitProbes()
	if err != nil {
		return nil, err
	}
	for _, part := range []map[string]float64{sp5.metrics(), sp7.metrics(), probes} {
		for k, v := range part {
			m[k] = v
		}
	}
	return res, nil
}

// reference returns the first task of the execution that ran the given
// experiment, with its results and the seed it actually ran on. A
// workload without one runs the experiment's quick preset through a
// runner instead, so each replica is always checked against the
// registered experiment.
func reference(ex *execution, id string, seed uint64) (experiment.Task, []*experiment.Result, error) {
	for _, part := range ex.results {
		for _, tr := range part {
			if tr.Task.Experiment == id && tr.Err == nil {
				t := tr.Task
				t.Params.Seed = tr.EffectiveSeed
				return t, tr.Results, nil
			}
		}
	}
	r := &experiment.Runner{Parallel: 1}
	trs, err := r.Run([]experiment.Task{{Label: id, Experiment: id, Params: experiment.Params{Quick: true, Seed: seed}}})
	if err != nil {
		return experiment.Task{}, nil, err
	}
	if trs[0].Err != nil {
		return experiment.Task{}, nil, fmt.Errorf("reference %s: %w", id, trs[0].Err)
	}
	t := trs[0].Task
	t.Params.Seed = trs[0].EffectiveSeed
	return t, trs[0].Results, nil
}
