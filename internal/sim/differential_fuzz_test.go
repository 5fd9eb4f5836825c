package sim

import (
	"fmt"
	"testing"

	"repro/internal/attack"
	"repro/internal/mitigation"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fuzzScenario derives a random-but-deterministic system shape and
// workload from the seed: both engine runs rebuild exactly the same
// scenario, so any divergence is an engine bug, not generator noise.
func fuzzScenario(seed uint64) scenario {
	return func(t *testing.T) (Config, trace.Mix, *attack.Observer) {
		rng := stats.NewRNG(seed ^ 0xf022)
		cfg := Table6Config(int64(rng.Intn(1_500)), int64(2_000+rng.Intn(8_000)))
		cfg.LLC.SizeBytes = 1 << 20
		cfg.Ctrl.BLISS = rng.Bernoulli(0.3)

		var err error
		switch rng.Intn(5) {
		case 1:
			cfg.Mechanism, err = mitigation.NewPARA(
				cfg.MitigationParams(256+rng.Intn(8_000), rng.Uint64()), cfg.T.TCKPS)
		case 2:
			cfg.Mechanism, err = mitigation.NewTRR(
				cfg.MitigationParams(1_000+rng.Intn(8_000), rng.Uint64()))
		case 3:
			cfg.Mechanism, err = mitigation.NewIdeal(
				cfg.MitigationParams(1_000+rng.Intn(8_000), rng.Uint64()))
		case 4:
			cfg.Mechanism, err = mitigation.NewBlockHammer(
				cfg.MitigationParams(1_000+rng.Intn(8_000), rng.Uint64()))
		}
		if err != nil {
			t.Fatal(err)
		}

		catalog := trace.Catalog()
		cores := 1 + rng.Intn(3)
		mix := trace.Mix{Name: fmt.Sprintf("fuzz%d", seed)}
		for c := 0; c < cores; c++ {
			p := catalog[rng.Intn(len(catalog))]
			mix.Traces = append(mix.Traces, p.Generate(600+rng.Intn(1_200), rng.Uint64()))
		}
		return cfg, mix, nil
	}
}
