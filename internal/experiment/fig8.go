package experiment

import (
	"fmt"
	"time"

	"onionbots/internal/core"
	"onionbots/internal/soap"
	"onionbots/internal/superonion"
)

func init() {
	Register(Definition{
		ID:    "fig8",
		Title: "SuperOnion fleet vs basic botnet under SOAP (Fig 8)",
		Run: func(p Params) ([]*Result, error) {
			cfg := DefaultFig8Config(p.Quick)
			cfg.Seed = p.Seed
			if p.N > 0 {
				cfg.Hosts = p.N
			}
			r, err := RunFig8(cfg)
			if err != nil {
				return nil, err
			}
			return []*Result{r}, nil
		},
	})
}

// Fig8Config parameterizes the SuperOnion experiment: the Figure 8
// construction plus the SOAP-resistance comparison of Section VII-B.
type Fig8Config struct {
	// Hosts (n), VirtualsPerHost (m) and PeersPerVirtual (i) define the
	// construction. Figure 8 uses 5, 3, 2.
	Hosts, VirtualsPerHost, PeersPerVirtual int
	// Relays sizes the Tor substrate.
	Relays int
	// ProbeInterval is the hosts' connectivity-test period.
	ProbeInterval time.Duration
	// AttackInterval spaces the SOAP attacker's clone waves.
	AttackInterval time.Duration
	// Duration is the campaign length; SampleEvery spaces samples.
	Duration, SampleEvery time.Duration
	// Seed drives all randomness.
	Seed uint64
}

// DefaultFig8Config returns presets. Quick shrinks the fleet and the
// campaign.
func DefaultFig8Config(quick bool) Fig8Config {
	cfg := Fig8Config{
		Hosts: 5, VirtualsPerHost: 3, PeersPerVirtual: 2,
		Relays:        15,
		ProbeInterval: 2 * time.Minute, AttackInterval: 5 * time.Minute,
		Duration: 3 * time.Hour, SampleEvery: 15 * time.Minute,
		Seed: 5,
	}
	if quick {
		cfg.Hosts = 4
		cfg.Duration = 90 * time.Minute
	}
	return cfg
}

// RunFig8 builds the Figure 8 SuperOnion fleet, runs a SOAP campaign
// against it, and compares host containment against an equal-size basic
// botnet under the same attacker.
func RunFig8(cfg Fig8Config) (*Result, error) {
	res := &Result{
		ID: "fig8",
		Title: fmt.Sprintf("SuperOnion (n=%d, m=%d, i=%d) under SOAP vs basic botnet",
			cfg.Hosts, cfg.VirtualsPerHost, cfg.PeersPerVirtual),
		XLabel: "minutes", YLabel: "contained fraction",
	}

	// SuperOnion fleet with the C&C hotlist that replacements rely on.
	bn, err := core.NewBotNet(cfg.Seed, cfg.Relays, core.BotConfig{DMin: 2, DMax: 4})
	if err != nil {
		return nil, err
	}
	bn.Master.HotlistSize = 3
	fleet, err := superonion.BuildFleet(bn, cfg.Hosts, superonion.Config{
		M: cfg.VirtualsPerHost, I: cfg.PeersPerVirtual, ProbeInterval: cfg.ProbeInterval,
	})
	if err != nil {
		return nil, err
	}
	bn.Run(6 * time.Minute)
	res.AddNote("construction: %d hosts x %d virtuals = %d virtual nodes, %d virtual peers per host",
		cfg.Hosts, cfg.VirtualsPerHost, fleet.VirtualCount(),
		cfg.VirtualsPerHost*cfg.PeersPerVirtual)

	attacker := soap.NewAttacker(bn.Net, bn.Master.NetKey(),
		soap.Config{RoundInterval: cfg.AttackInterval})
	attacker.Start(fleet.Hosts[0].Virtuals()[0].Onion())
	isBenign := func(onion string) bool { return !attacker.IsClone(onion) }

	// Baseline: same population of basic bots, same attacker pressure.
	base, err := core.NewBotNet(cfg.Seed, cfg.Relays, core.BotConfig{DMin: 2, DMax: 4})
	if err != nil {
		return nil, err
	}
	if err := base.Grow(cfg.Hosts*cfg.VirtualsPerHost, nil); err != nil {
		return nil, err
	}
	base.Run(6 * time.Minute)
	baseAttacker := soap.NewAttacker(base.Net, base.Master.NetKey(),
		soap.Config{RoundInterval: cfg.AttackInterval})
	baseAttacker.Start(base.AliveBots()[0].Onion())

	fleetSeries := Series{Name: "SuperOnion hosts"}
	baseSeries := Series{Name: "basic bots"}
	for elapsed := time.Duration(0); elapsed < cfg.Duration; elapsed += cfg.SampleEvery {
		bn.Run(cfg.SampleEvery)
		base.Run(cfg.SampleEvery)
		x := (elapsed + cfg.SampleEvery).Minutes()
		fleetSeries.Points = append(fleetSeries.Points, Point{
			X: x,
			Y: float64(fleet.ContainedHosts(isBenign)) / float64(len(fleet.Hosts)),
		})
		baseSeries.Points = append(baseSeries.Points, Point{
			X: x,
			Y: soap.ContainmentFraction(base, baseAttacker),
		})
	}
	res.Series = append(res.Series, fleetSeries, baseSeries)

	replaced, detected := 0, 0
	for _, h := range fleet.Hosts {
		replaced += h.Stats().VirtualsReplaced
		detected += h.Stats().SoapedDetected
	}
	res.AddNote("fleet detected %d soaped virtuals, replaced %d", detected, replaced)
	res.AddNote("final: SuperOnion hosts contained %.2f vs basic bots %.2f",
		fleetSeries.Points[len(fleetSeries.Points)-1].Y,
		baseSeries.Points[len(baseSeries.Points)-1].Y)
	res.AddNote("attacker spent %d clones on the fleet vs %d on the basic botnet",
		attacker.Stats().ClonesCreated, baseAttacker.Stats().ClonesCreated)
	return res, nil
}
