package sim

import (
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/faultmodel"
	"repro/internal/mitigation"
	"repro/internal/trace"
)

// scenario builds one corpus entry fresh for each engine run: mechanisms
// and observers are stateful (RNGs, sampler tables, damage accounting),
// so sharing them across the two runs would confound the comparison.
type scenario func(t *testing.T) (Config, trace.Mix, *attack.Observer)

// runAllCores is the reference loop without sleeping cores: it ticks
// every core on every cycle, asleep or not, and is otherwise runCycle. It
// is the oracle for both engines' skipping of asleep cores.
func (s *system) runAllCores() {
	target := s.cfg.WarmupInsts
	for s.cpuCycle = 0; s.cpuCycle < s.maxCycles; s.cpuCycle++ {
		s.llc.Tick()
		for _, c := range s.cores {
			c.Tick()
		}
		s.cycles++
		s.memAcc += s.memF
		if s.memAcc >= s.cpuF {
			s.memAcc -= s.cpuF
			s.ctrl.Tick()
		}
		if !s.warmedUp && s.allRetired(target) {
			s.beginMeasure()
		}
		if s.warmedUp && s.allRetired(s.cfg.MeasureInsts) {
			break
		}
	}
}

// runBothEngines executes a scenario under the cycle oracle, the event
// engine and the all-cores loop (runAllCores), and asserts byte-identical
// results and observer timelines.
func runBothEngines(t *testing.T, mk scenario) {
	t.Helper()
	cfgA, mixA, obsA := mk(t)
	s, err := newSystem(cfgA, mixA)
	if err != nil {
		t.Fatalf("all-cores loop: %v", err)
	}
	s.runAllCores()
	resA := s.result()
	for _, engine := range []Engine{EngineCycle, EngineEvent} {
		cfg, mix, obs := mk(t)
		cfg.Engine = engine
		res, err := Run(cfg, mix)
		if err != nil {
			t.Fatalf("%s engine: %v", engine, err)
		}
		if !reflect.DeepEqual(resA, res) {
			t.Errorf("results diverge\n all-cores: %+v\n %s: %+v", resA, engine, res)
		}
		if (obsA == nil) != (obs == nil) {
			t.Fatal("scenario built observer for some runs only")
		}
		if obsA == nil {
			continue
		}
		if !reflect.DeepEqual(obsA.Timeline(), obs.Timeline()) {
			t.Errorf("REF-window timelines diverge\n all-cores: %+v\n %s: %+v",
				obsA.Timeline(), engine, obs.Timeline())
		}
		if !reflect.DeepEqual(obsA.Flips(), obs.Flips()) {
			t.Errorf("flip events diverge\n all-cores: %+v\n %s: %+v", obsA.Flips(), engine, obs.Flips())
		}
		if obsA.TotalACTs() != obs.TotalACTs() || obsA.AggressorACTs() != obs.AggressorACTs() ||
			obsA.RawFlips() != obs.RawFlips() || obsA.FirstFlipCycle() != obs.FirstFlipCycle() {
			t.Errorf("observer counters diverge: all-cores (acts %d agg %d raw %d first %d) %s (acts %d agg %d raw %d first %d)",
				obsA.TotalACTs(), obsA.AggressorACTs(), obsA.RawFlips(), obsA.FirstFlipCycle(), engine,
				obs.TotalACTs(), obs.AggressorACTs(), obs.RawFlips(), obs.FirstFlipCycle())
		}
	}
}

// diffConfig is quickConfig shrunk a bit further: the corpus runs every
// scenario twice.
func diffConfig() Config {
	cfg := Table6Config(1_000, 10_000)
	cfg.LLC.SizeBytes = 1 << 20
	return cfg
}

func benignScenario(cores int, seed uint64, mut func(*Config)) scenario {
	return func(t *testing.T) (Config, trace.Mix, *attack.Observer) {
		cfg := diffConfig()
		if mut != nil {
			mut(&cfg)
		}
		return cfg, trace.Mixes(1, cores, 1_500, seed)[0], nil
	}
}

func mechScenario(build func(cfg Config) (mitigation.Mechanism, error)) scenario {
	return func(t *testing.T) (Config, trace.Mix, *attack.Observer) {
		cfg := diffConfig()
		mech, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mechanism = mech
		return cfg, trace.Mixes(1, 4, 1_500, 7)[0], nil
	}
}

// attackScenario wires a synthesized hammering stream plus one benign
// core into a duration-terminated run with the fault-model observer
// attached — the full trr-dodge/pareto cell shape.
func attackScenario(kind attack.Kind, duty, phase float64, benignCores int,
	build func(cfg Config) (mitigation.Mechanism, error), mut func(*Config),
) scenario {
	return func(t *testing.T) (Config, trace.Mix, *attack.Observer) {
		cfg := Table6Config(0, 1)
		cfg.Geo.Rows = 4096
		cfg.T = dram.DDR4_2400(cfg.Geo.Rows)
		cfg.LLC.SizeBytes = 1 << 20
		cfg.WarmupInsts = 0
		cfg.MeasureInsts = 1 << 40 // duration-terminated
		cfg.MaxCPUCycles = 120_000 * int64(cfg.CPUFreqMHz) / int64(cfg.MemFreqMHz)
		if mut != nil {
			mut(&cfg)
		}
		if build != nil {
			mech, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Mechanism = mech
		}
		chip, err := faultmodel.NewChip(faultmodel.Config{
			Name:         "diff-" + string(kind),
			Banks:        cfg.Geo.Banks(),
			Rows:         cfg.Geo.Rows,
			RowBits:      1024,
			HCFirst:      4_000,
			Rate150k:     5e-5,
			WorstPattern: faultmodel.RowStripe0,
			Seed:         0x5eed,
		})
		if err != nil {
			t.Fatal(err)
		}
		chip.WriteAll(faultmodel.RowStripe0)
		weak := chip.WeakestCell()
		spec := attack.Spec{Kind: kind, Records: 1024, Seed: 0xdec0, DutyCycle: duty, Phase: phase}
		attackTrace, aggressors, err := spec.Synthesize(cfg.Geo, attack.Target{Bank: weak.Bank, Row: weak.Row})
		if err != nil {
			t.Fatal(err)
		}
		obs := attack.NewObserver(chip)
		obs.WatchAggressors(aggressors)
		cfg.Observer = obs
		mix := trace.Mix{Name: "diff-attack", Traces: []*trace.Trace{attackTrace}}
		if benignCores > 0 {
			mix.Traces = append(mix.Traces, trace.Mixes(1, benignCores, 1_000, 11)[0].Traces...)
		}
		return cfg, mix, obs
	}
}

// TestEngineDifferentialCorpus is the differential oracle of ISSUE 6: the
// event engine must be byte-identical to the cycle engine on benign mixes
// under every scheduler/policy/mechanism family, and on all five attack
// patterns including duty-cycle paced streams (whose REF-stall self-lock
// is cycle-exact).
func TestEngineDifferentialCorpus(t *testing.T) {
	para := func(hc int) func(cfg Config) (mitigation.Mechanism, error) {
		return func(cfg Config) (mitigation.Mechanism, error) {
			return mitigation.NewPARA(cfg.MitigationParams(hc, 1), cfg.T.TCKPS)
		}
	}
	trr := func(cfg Config) (mitigation.Mechanism, error) {
		return mitigation.NewTRR(cfg.MitigationParams(4_000, 2))
	}
	ideal := func(cfg Config) (mitigation.Mechanism, error) {
		return mitigation.NewIdeal(cfg.MitigationParams(4_000, 3))
	}
	blockhammer := func(cfg Config) (mitigation.Mechanism, error) {
		return mitigation.NewBlockHammer(cfg.MitigationParams(4_000, 4))
	}
	refresh := func(cfg Config) (mitigation.Mechanism, error) {
		return mitigation.NewIncreasedRefresh(cfg.MitigationParams(2_000, 5))
	}

	cases := []struct {
		name string
		mk   scenario
	}{
		{"benign-1core", benignScenario(1, 1, nil)},
		{"benign-2core", benignScenario(2, 2, nil)},
		{"benign-4core", benignScenario(4, 3, nil)},
		{"benign-bliss", benignScenario(4, 4, func(c *Config) { c.Ctrl.BLISS = true })},
		{"mech-para-aggressive", mechScenario(para(128))},
		{"mech-trr", mechScenario(trr)},
		{"mech-ideal", mechScenario(ideal)},
		{"mech-blockhammer", mechScenario(blockhammer)},
		{"mech-refresh-storm", mechScenario(refresh)},
		{"attack-single-sided", attackScenario(attack.SingleSided, 0, 0, 1, nil, nil)},
		{"attack-double-sided-para", attackScenario(attack.DoubleSided, 0, 0, 1, para(4_000), nil)},
		{"attack-many-sided-trr", attackScenario(attack.ManySided, 0, 0, 1, trr, nil)},
		{"attack-scattered-blockhammer", attackScenario(attack.Scattered, 0, 0, 1, blockhammer, nil)},
		{"attack-decoy-ideal", attackScenario(attack.Decoy, 0, 0, 1, ideal, nil)},
		{"attack-paced-duty25", attackScenario(attack.DoubleSided, 0.25, 0.3, 0, trr, nil)},
		{"attack-paced-duty50-bliss", attackScenario(attack.DoubleSided, 0.5, 0, 0, nil,
			func(c *Config) { c.Ctrl.BLISS = true })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runBothEngines(t, tc.mk) })
	}
}

// TestEngineDifferentialFuzz widens the corpus with seeded randomized
// system/workload shapes: a deterministic generator drives both engines
// over random core counts, profiles, policies, and mechanisms.
func TestEngineDifferentialFuzz(t *testing.T) {
	n := 10
	if testing.Short() {
		n = 3
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		runBothEngines(t, fuzzScenario(seed))
	}
}
