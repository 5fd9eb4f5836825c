package sim

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/mitigation"
	"repro/internal/trace"
)

// refusalCensus runs a scenario through the reference loop and counts,
// per refusal kind, the core-cycles that began with a core asleep on a
// refusal of that kind. It also reports whether some core was refused
// when warmup ended.
func refusalCensus(t *testing.T, mk scenario) (slept [3]int64, refusedAtWarmup bool) {
	t.Helper()
	cfg, mix, _ := mk(t)
	s, err := newSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	target := s.cfg.WarmupInsts
	for s.cpuCycle = 0; s.cpuCycle < s.maxCycles; s.cpuCycle++ {
		for i, c := range s.cores {
			if !c.Asleep() && c.Refused() && s.refusalHolds(i) {
				slept[s.refusals[i].kind]++
			}
		}
		s.tick()
		if !s.warmedUp && s.allRetired(target) {
			for _, c := range s.cores {
				refusedAtWarmup = refusedAtWarmup || c.Refused()
			}
			s.beginMeasure()
		}
		if s.warmedUp && s.allRetired(s.cfg.MeasureInsts) {
			break
		}
	}
	return slept, refusedAtWarmup
}

// blockHammer builds a BlockHammer variant (NewBlockHammer,
// NewBlockHammerBinary or NewBlockHammerBlanket) for a scenario. A
// positive refw cuts the refresh window the mechanism budgets for, so
// that its epochs rotate, its spacing intervals run out and its delay
// windows close inside a short run.
func blockHammer(hc int, refw int64, build func(mitigation.Params) (*mitigation.BlockHammer, error)) func(cfg Config) (mitigation.Mechanism, error) {
	return func(cfg Config) (mitigation.Mechanism, error) {
		p := cfg.MitigationParams(hc, 4)
		if refw > 0 {
			p.TREFW = refw
		}
		return build(p)
	}
}

// sharedRequester adds a second attacker to an attack scenario: a copy of
// its attack trace, with both traces' records attributed to one
// requester ID, so two cores are refused, throttled and counted under
// one source.
func sharedRequester(mk scenario) scenario {
	return func(t *testing.T) (Config, trace.Mix, *attack.Observer) {
		cfg, mix, obs := mk(t)
		att := *mix.Traces[0]
		att.Records = append([]trace.Record(nil), att.Records...)
		for i := range att.Records {
			att.Records[i].Requester = 9
		}
		twin := att
		mix.Traces = append([]*trace.Trace{&att, &twin}, mix.Traces[1:]...)
		return cfg, mix, obs
	}
}

// withStreamer adds a core to a scenario that reads uncached lines in a
// new row of a new bank each time, too spread out for any row to be
// blacklisted. Its reads enter the read queue without an LLC allocation,
// so only the controller sees them arrive.
func withStreamer(mk scenario) scenario {
	return func(t *testing.T) (Config, trace.Mix, *attack.Observer) {
		cfg, mix, obs := mk(t)
		mapper, err := dram.NewAddressMapper(cfg.Geo)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]trace.Record, 1024)
		for i := range recs {
			a := dram.Address{Bank: i % cfg.Geo.Banks(), Row: i * 7 % cfg.Geo.Rows}
			recs[i] = trace.Record{Gap: 30, Addr: mapper.AddressOf(a), NoCache: true}
		}
		mix.Traces = append(mix.Traces, &trace.Trace{Name: "streamer", Records: recs})
		return cfg, mix, obs
	}
}

// forwardingScenario runs cores that write a line and then read the line
// they wrote one record before, through an LLC of a few sets: dirty lines
// are evicted into the write queue and read again while still queued, so
// the controller forwards reads, and the cache allocates MSHRs for reads
// that never enter the read queue, beside a read queue that is nearly
// always full.
func forwardingScenario(t *testing.T) (Config, trace.Mix, *attack.Observer) {
	cfg := diffConfig()
	cfg.MeasureInsts = 2_000
	cfg.LLC.SizeBytes = 4 << 10
	cfg.LLC.MSHRs = 6
	cfg.Ctrl.ReadQueue = 2
	const lines, stride = 768, 37
	mix := trace.Mix{Name: "forwarding"}
	for c := 0; c < 3; c++ {
		var recs []trace.Record
		for i := 0; i < 256; i++ {
			line := int64((c*256 + i*stride) % lines)
			recs = append(recs,
				trace.Record{Gap: 1, Addr: line * 64, Write: true},
				trace.Record{Gap: 1, Addr: (line + lines - stride) % lines * 64})
		}
		mix.Traces = append(mix.Traces, &trace.Trace{Name: "write-read", Records: recs})
	}
	return cfg, mix, nil
}

// TestRefusedSleepDifferential checks refused sleepers (system.refusalHolds)
// against runAllCores, the loop that retries every refused access on
// every cycle: one scenario per refusal reason (every MSHR in flight, a
// full read queue, a throttled read), per BlockHammer admission policy,
// for two cores whose traces share one requester, and for a warmup that
// ends while a core sleeps refused. Each scenario first checks that it
// reaches the state it is named for.
func TestRefusedSleepDifferential(t *testing.T) {
	proportional := blockHammer(512, 0, mitigation.NewBlockHammer)
	cases := []struct {
		name   string
		mk     scenario
		kind   refusalKind
		warmup bool // some core is refused when warmup ends
	}{
		{"mshrs-exhausted", benignScenario(4, 5, func(c *Config) {
			c.LLC.MSHRs = 4
			c.MeasureInsts = 2_000
		}), refusedMSHR, false},
		{"read-queue-full", benignScenario(4, 6, func(c *Config) {
			c.Ctrl.ReadQueue = 4
			c.MeasureInsts = 2_000
		}), refusedFull, false},
		{"throttled-proportional", attackScenario(attack.DoubleSided, 0, 0, 2, proportional, nil), refusedThrottled, false},
		{"throttled-proportional-short-window", attackScenario(attack.ManySided, 0, 0, 2,
			blockHammer(256, 100_000, mitigation.NewBlockHammer), nil), refusedThrottled, false},
		{"throttled-binary", attackScenario(attack.ManySided, 0, 0, 2,
			blockHammer(256, 100_000, mitigation.NewBlockHammerBinary), nil), refusedThrottled, false},
		{"throttled-blanket", attackScenario(attack.Scattered, 0, 0, 2,
			blockHammer(256, 100_000, mitigation.NewBlockHammerBlanket), func(c *Config) { c.Ctrl.ReadQueue = 4 }), refusedThrottled, false},
		{"throttled-beside-streamer", withStreamer(attackScenario(attack.DoubleSided, 0, 0, 0,
			blockHammer(256, 100_000, mitigation.NewBlockHammer), func(c *Config) { c.Ctrl.ReadQueue = 8 })), refusedThrottled, false},
		{"forwarding", forwardingScenario, refusedFull, false},
		{"shared-requester", sharedRequester(attackScenario(attack.DoubleSided, 0, 0, 1,
			blockHammer(256, 100_000, mitigation.NewBlockHammer), nil)), refusedThrottled, false},
		{"warmup-while-refused", attackScenario(attack.DoubleSided, 0, 0, 1, proportional,
			func(c *Config) { c.WarmupInsts = 3_000 }), refusedThrottled, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slept, atWarmup := refusalCensus(t, tc.mk)
			t.Logf("core-cycles asleep refused: mshr %d, full %d, throttled %d", slept[refusedMSHR], slept[refusedFull], slept[refusedThrottled])
			if slept[tc.kind] == 0 {
				t.Fatalf("no core slept on a refusal of kind %d", tc.kind)
			}
			if tc.warmup && !atWarmup {
				t.Fatal("no core was refused when warmup ended")
			}
			runBothEngines(t, tc.mk)
		})
	}
}
