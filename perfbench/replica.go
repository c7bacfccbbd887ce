package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"onionbots/internal/core"
	"onionbots/internal/ddsr"
	"onionbots/internal/experiment"
	"onionbots/internal/graph"
	"onionbots/internal/sim"
	"onionbots/internal/soap"
)

// The replicas below re-run experiment.RunFig5 and experiment.RunFig7
// step for step from the same public calls, with a clock around each
// call into a layer. matchSeries checks that a replica reproduces the
// registered experiment's series, so its spans time the program the
// workloads run.

// fig5Spans is the graph/DDSR breakdown of one Fig 5 run.
type fig5Spans struct {
	build, repair, normalRemove                time.Duration
	snapshot, components, diameter, centrality time.Duration
	stats                                      ddsr.Stats
}

func (s *fig5Spans) metrics() map[string]float64 {
	m := map[string]float64{
		"ddsr.build_s":              s.build.Seconds(),
		"ddsr.repair_s":             s.repair.Seconds(),
		"ddsr.normal_remove_s":      s.normalRemove.Seconds(),
		"graph.snapshot_s":          s.snapshot.Seconds(),
		"graph.components_s":        s.components.Seconds(),
		"graph.diameter_s":          s.diameter.Seconds(),
		"graph.degree_centrality_s": s.centrality.Seconds(),
		"ddsr.nodes_removed":        float64(s.stats.NodesRemoved),
		"ddsr.repair_edges":         float64(s.stats.RepairEdgesAdded),
		"ddsr.floor_edges":          float64(s.stats.FloorEdgesAdded),
		"ddsr.edges_pruned":         float64(s.stats.EdgesPruned),
		"ddsr.repair_us_per_node":   0,
	}
	if s.stats.NodesRemoved > 0 {
		m["ddsr.repair_us_per_node"] = s.repair.Seconds() * 1e6 / float64(s.stats.NodesRemoved)
	}
	return m
}

// fig5Config is the configuration the registered fig5 experiment
// derives from a task's parameters.
func fig5Config(p experiment.Params) experiment.Fig5Config {
	cfg := experiment.DefaultFig5Config(p.Quick, p.N)
	cfg.Seed = p.Seed
	if p.Quick && p.N > 0 {
		cfg.N = p.N
		cfg.MeasureEvery = max(1, p.N/10)
	}
	if p.K > 0 {
		cfg.K = p.K
	}
	return cfg
}

// replicaFig5 is experiment.RunFig5 with spans. It returns the
// components, degree-centrality and diameter series in RunFig5's order.
func replicaFig5(cfg experiment.Fig5Config) ([][]experiment.Series, *fig5Spans, error) {
	sp := &fig5Spans{}
	start := time.Now()
	rng := sim.NewRNG(cfg.Seed)
	o, err := ddsr.NewRegular(cfg.N, cfg.K, ddsr.DefaultConfig(cfg.K), rng)
	if err != nil {
		return nil, nil, err
	}
	nrm, err := ddsr.NewNormalRegular(cfg.N, cfg.K, sim.NewRNG(cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	sp.build = time.Since(start)

	variants := []struct {
		name   string
		m      ddsr.Maintainer
		remove *time.Duration
	}{{"DDSR", o, &sp.repair}, {"Normal", nrm, &sp.normalRemove}}
	out := make([][]experiment.Series, 3)
	for _, v := range variants {
		perm := sim.NewRNG(cfg.Seed + 7).Perm(cfg.N)
		comp := experiment.Series{Name: v.name}
		deg := experiment.Series{Name: v.name}
		diam := experiment.Series{Name: v.name}
		mrng := sim.NewRNG(cfg.Seed + 11)
		measure := func(deleted int) {
			g := v.m.Graph()
			if g.NumNodes() == 0 {
				return
			}
			x := float64(deleted)
			t := time.Now()
			ix := g.Snapshot()
			sp.snapshot += time.Since(t)
			t = time.Now()
			c := len(ix.Components())
			sp.components += time.Since(t)
			t = time.Now()
			dc := graph.AvgDegreeCentrality(g)
			sp.centrality += time.Since(t)
			t = time.Now()
			d, _ := ix.DiameterApprox(cfg.DiameterSweeps, mrng)
			sp.diameter += time.Since(t)
			comp.Points = append(comp.Points, experiment.Point{X: x, Y: float64(c)})
			deg.Points = append(deg.Points, experiment.Point{X: x, Y: dc})
			diam.Points = append(diam.Points, experiment.Point{X: x, Y: float64(d)})
		}
		measure(0)
		limit := cfg.N - 3
		t := time.Now()
		for i := 0; i < limit; i++ {
			v.m.RemoveNode(perm[i])
			if (i+1)%cfg.MeasureEvery == 0 || i+1 == limit {
				*v.remove += time.Since(t)
				measure(i + 1)
				t = time.Now()
			}
		}
		out[0] = append(out[0], comp)
		out[1] = append(out[1], deg)
		out[2] = append(out[2], diam)
	}
	sp.stats = o.Stats()
	return out, sp, nil
}

// fig7Spans is the core/scheduler/SOAP breakdown of one Fig 7 run.
type fig7Spans struct {
	build, grow, run, measure time.Duration
	events                    int
	circuits, cells           int
	soap                      soap.Stats
}

func (s *fig7Spans) metrics() map[string]float64 {
	m := map[string]float64{
		"core.build_s":              s.build.Seconds(),
		"core.grow_s":               s.grow.Seconds(),
		"sim.run_s":                 s.run.Seconds(),
		"soap.measure_s":            s.measure.Seconds(),
		"sim.events":                float64(s.events),
		"tor.circuits_built":        float64(s.circuits),
		"tor.cells_switched":        float64(s.cells),
		"soap.clones_created":       float64(s.soap.ClonesCreated),
		"sim.ns_per_event":          0,
		"soap.peering_accept_ratio": 0,
	}
	if s.events > 0 {
		m["sim.ns_per_event"] = float64(s.run.Nanoseconds()) / float64(s.events)
	}
	if n := s.soap.PeeringAccepted + s.soap.PeeringRejected; n > 0 {
		m["soap.peering_accept_ratio"] = float64(s.soap.PeeringAccepted) / float64(n)
	}
	return m
}

// fig7Config is the configuration the registered fig7 experiment
// derives from a task's parameters.
func fig7Config(p experiment.Params) experiment.Fig7Config {
	cfg := experiment.DefaultFig7Config(p.Quick)
	cfg.Seed = p.Seed
	if p.Store != "" {
		cfg.Store = p.Store
	}
	if p.N > 0 {
		cfg.Bots = p.N
	}
	return cfg
}

// replicaFig7 is experiment.RunFig7 with spans. It returns the
// campaign's two series.
func replicaFig7(cfg experiment.Fig7Config) ([]experiment.Series, *fig7Spans, error) {
	sp := &fig7Spans{}
	start := time.Now()
	bn, err := core.NewBotNet(cfg.Seed, cfg.Relays, core.BotConfig{DMin: 2, DMax: 4, Store: cfg.Store})
	if err != nil {
		return nil, nil, err
	}
	sp.build = time.Since(start)
	bn.Master.HotlistSize = 3
	start = time.Now()
	if err := bn.Grow(cfg.Bots, nil); err != nil {
		return nil, nil, err
	}
	sp.grow = time.Since(start)
	run := func(d time.Duration) {
		t := time.Now()
		sp.events += bn.Sched.RunFor(d)
		sp.run += time.Since(t)
	}
	run(6 * time.Minute)
	if err := bn.Broadcast("baseline", nil, 1); err != nil {
		return nil, nil, err
	}
	run(2 * time.Minute)

	captured := bn.AliveBots()[0]
	attacker := soap.NewAttacker(bn.Net, bn.Master.NetKey(), soap.Config{MaxClonesPerTarget: 64})
	attacker.Start(captured.Onion())
	surrounded := experiment.Series{Name: "clone-neighbor-fraction"}
	contained := experiment.Series{Name: "contained-fraction"}
	for elapsed := time.Duration(0); elapsed < cfg.Duration; elapsed += cfg.SampleEvery {
		run(cfg.SampleEvery)
		x := (elapsed + cfg.SampleEvery).Minutes()
		t := time.Now()
		cn := soap.CloneNeighborFraction(bn, attacker)
		cf := soap.ContainmentFraction(bn, attacker)
		sp.measure += time.Since(t)
		surrounded.Points = append(surrounded.Points, experiment.Point{X: x, Y: cn})
		contained.Points = append(contained.Points, experiment.Point{X: x, Y: cf})
	}
	if err := bn.Broadcast("after", nil, 1); err != nil {
		return nil, nil, err
	}
	run(2 * time.Minute)
	t := time.Now()
	soap.BenignOverlay(bn, attacker)
	sp.measure += time.Since(t)

	st := bn.Net.Stats()
	sp.circuits, sp.cells = st.CircuitsBuilt, st.CellsSwitched
	sp.soap = attacker.Stats()
	return []experiment.Series{surrounded, contained}, sp, nil
}

// matchSeries checks that a replica's series equal a registered
// experiment's, value for value.
func matchSeries(want []*experiment.Result, got [][]experiment.Series) error {
	if len(want) != len(got) {
		return fmt.Errorf("replica produced %d results, experiment %d", len(got), len(want))
	}
	for i, r := range want {
		a, err := json.Marshal(r.Series)
		if err != nil {
			return err
		}
		b, err := json.Marshal(got[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("replica series differ from experiment result %s", r.ID)
		}
	}
	return nil
}
