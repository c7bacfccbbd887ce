package main

// metricDef names one reported metric. The end-to-end metrics are
// printed with tracing off and the per-layer metrics with tracing on;
// BENCHMARK.json lists the same names, units and directions (a test
// keeps the two in step).
type metricDef struct {
	name, unit  string
	lowerBetter bool
}

var endToEnd = []metricDef{
	{"wall_s", "s", true},
	{"setup_s", "s", true},
	{"cpu_s", "s", true},
	{"peak_rss_mib", "MiB", true},
}

// perLayer is built from the CPU buckets plus the spans, counts and
// probes of the traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range bucketNames() {
		defs = append(defs, metricDef{b + ".cpu_s", "s", true})
	}
	defs = append(defs,
		metricDef{"profile.cpu_s", "s", true},
		metricDef{"split.graph_ddsr_frac", "frac", true},
		metricDef{"split.tor_frac", "frac", true},
		metricDef{"split.crypto_frac", "frac", true},

		metricDef{"ddsr.build_s", "s", true},
		metricDef{"ddsr.repair_s", "s", true},
		metricDef{"ddsr.normal_remove_s", "s", true},
		metricDef{"graph.snapshot_s", "s", true},
		metricDef{"graph.components_s", "s", true},
		metricDef{"graph.diameter_s", "s", true},
		metricDef{"graph.degree_centrality_s", "s", true},
		metricDef{"ddsr.nodes_removed", "count", true},
		metricDef{"ddsr.repair_edges", "count", true},
		metricDef{"ddsr.floor_edges", "count", true},
		metricDef{"ddsr.edges_pruned", "count", true},
		metricDef{"ddsr.repair_us_per_node", "us", true},

		metricDef{"core.build_s", "s", true},
		metricDef{"core.grow_s", "s", true},
		metricDef{"sim.run_s", "s", true},
		metricDef{"soap.measure_s", "s", true},
		metricDef{"sim.events", "count", true},
		metricDef{"tor.circuits_built", "count", true},
		metricDef{"tor.cells_switched", "count", true},
		metricDef{"soap.clones_created", "count", true},
		metricDef{"sim.ns_per_event", "ns", true},
		metricDef{"soap.peering_accept_ratio", "frac", false},

		metricDef{"tor.cell_send_ns", "ns", true},
		metricDef{"tor.dial_us", "us", true},
		metricDef{"tor.keygen_us", "us", true},
		metricDef{"botcrypto.seal_open_ns", "ns", true},
		metricDef{"pow.hash_ns", "ns", true},
		metricDef{"sim.event_ns", "ns", true},
		metricDef{"tor.store_put_ns", "ns", true},
		metricDef{"tor.store_get_ns", "ns", true},

		metricDef{"gc.cycles", "count", true},
		metricDef{"gc.alloc_mib", "MiB", true},
		metricDef{"gc.metrics_cpu_s", "s", true},
		metricDef{"gc.heap_peak_mib", "MiB", true},

		metricDef{"experiment.pool_busy_frac", "frac", false},
		metricDef{"experiment.task_s_max", "s", true},
		metricDef{"bench.trace_overhead_frac", "frac", true},
	)
	return defs
}()
