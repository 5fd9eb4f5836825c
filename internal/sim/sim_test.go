package sim

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/trace"
)

// quickConfig returns a scaled-down Table 6 system for tests.
func quickConfig() Config {
	cfg := Table6Config(2_000, 20_000)
	cfg.LLC.SizeBytes = 1 << 20 // 1 MiB keeps the miss rate realistic at small scale
	return cfg
}

func quickMix(cores int, seed uint64) trace.Mix {
	return trace.Mixes(1, cores, 2_000, seed)[0]
}

func TestBaselineRunCompletes(t *testing.T) {
	cfg := quickConfig()
	mix := quickMix(4, 1)
	res, err := Run(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUCycles <= 0 {
		t.Fatal("no measured cycles")
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 || ipc > float64(cfg.Core.IssueWidth) {
			t.Errorf("core %d IPC = %v out of (0,%d]", i, ipc, cfg.Core.IssueWidth)
		}
	}
	for i, r := range res.Retired {
		if r < cfg.MeasureInsts {
			t.Errorf("core %d retired %d < target %d", i, r, cfg.MeasureInsts)
		}
	}
	if res.Ctrl.Reads == 0 {
		t.Error("no memory reads reached the controller")
	}
	if res.Chan.REFs == 0 {
		t.Error("no refresh commands issued")
	}
	if res.MPKI <= 0 {
		t.Error("zero MPKI on a memory-intensive mix")
	}
}

// memoryIntenseMix builds a mix from the most activation-heavy profiles
// so mitigation overheads rise well above run-to-run noise.
func memoryIntenseMix(seed uint64) trace.Mix {
	var profiles []trace.Profile
	for _, p := range trace.Catalog() {
		switch p.Name {
		case "mcf-like", "graph-walk", "sparse-mv", "hash-join":
			profiles = append(profiles, p)
		}
	}
	m := trace.Mix{Name: "intense"}
	for i, p := range profiles {
		m.Traces = append(m.Traces, p.Generate(2_000, seed+uint64(i)))
	}
	return m
}

func TestMitigationSlowdownOrdering(t *testing.T) {
	cfg := quickConfig()
	mix := memoryIntenseMix(2)

	base, err := Run(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}

	// An aggressive PARA (tiny HCfirst) must slow the system down and
	// consume bandwidth; a mild one (large HCfirst) should be near zero.
	aggressive, err := mitigation.NewPARA(cfg.MitigationParams(128, 1), cfg.T.TCKPS)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := cfg
	cfgA.Mechanism = aggressive
	resA, err := Run(cfgA, mix)
	if err != nil {
		t.Fatal(err)
	}

	mild, err := mitigation.NewPARA(cfg.MitigationParams(100_000, 1), cfg.T.TCKPS)
	if err != nil {
		t.Fatal(err)
	}
	cfgM := cfg
	cfgM.Mechanism = mild
	resM, err := Run(cfgM, mix)
	if err != nil {
		t.Fatal(err)
	}

	if resA.TotalIPC() >= base.TotalIPC() {
		t.Errorf("aggressive PARA IPC %.3f not below baseline %.3f", resA.TotalIPC(), base.TotalIPC())
	}
	if resA.BandwidthOverheadPct <= resM.BandwidthOverheadPct {
		t.Errorf("aggressive PARA overhead %.3f%% not above mild %.3f%%",
			resA.BandwidthOverheadPct, resM.BandwidthOverheadPct)
	}
	if resA.Ctrl.MitigationACTs == 0 {
		t.Error("aggressive PARA issued no mitigation activates")
	}
}

func TestWeightedSpeedup(t *testing.T) {
	ws, err := WeightedSpeedup([]float64{1, 2}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if ws != 1.5 {
		t.Fatalf("ws = %v, want 1.5", ws)
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{0}); err == nil {
		t.Error("zero alone-IPC accepted")
	}
}

func TestRunAlone(t *testing.T) {
	cfg := quickConfig()
	cfg.WarmupInsts = 1_000
	cfg.MeasureInsts = 5_000
	mix := quickMix(2, 3)
	alone, err := RunAlone(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(alone) != 2 {
		t.Fatalf("got %d alone IPCs, want 2", len(alone))
	}
	for i, ipc := range alone {
		if ipc <= 0 {
			t.Errorf("alone IPC[%d] = %v", i, ipc)
		}
	}
}

// countingObserver records how many DRAM commands it was shown.
type countingObserver struct{ acts, refs int }

func (o *countingObserver) OnACT(rank, bank, row int, cycle int64) { o.acts++ }
func (o *countingObserver) OnRefresh(rank, bank, rowStart, rowCount int, cycle int64) {
	o.refs++
}

// TestRunAloneDetachesObserver guards the alone-run isolation contract:
// normalization runs must not leak their ACT/REF streams into the
// caller's command observer, or a hammer/TRR accountant would count
// traffic the shared run never issued.
func TestRunAloneDetachesObserver(t *testing.T) {
	cfg := quickConfig()
	cfg.WarmupInsts = 500
	cfg.MeasureInsts = 3_000
	obs := &countingObserver{}
	cfg.Observer = obs
	if _, err := RunAlone(cfg, quickMix(2, 3)); err != nil {
		t.Fatal(err)
	}
	if obs.acts != 0 || obs.refs != 0 {
		t.Fatalf("observer saw alone-run traffic: %d ACTs, %d refresh windows", obs.acts, obs.refs)
	}
	// The same config must still drive the observer in a shared run.
	if _, err := Run(cfg, quickMix(2, 3)); err != nil {
		t.Fatal(err)
	}
	if obs.acts == 0 {
		t.Fatal("observer attached to Run saw no ACTs")
	}
}

// TestNonPowerOfTwoBanksRejected: the address mapper's bank XOR permutes
// the bank index only for power-of-two bank counts — with 3 groups × 4
// banks, distinct lines alias — so every entry point that maps addresses
// refuses such a geometry.
func TestNonPowerOfTwoBanksRejected(t *testing.T) {
	cfg := quickConfig()
	cfg.Geo.BankGroups = 3
	if _, err := dram.NewAddressMapper(cfg.Geo); err == nil {
		t.Error("NewAddressMapper accepted 12 banks")
	}
	ch, err := dram.NewChannel(cfg.Geo, cfg.T)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memctrl.New(cfg.Ctrl, ch, nil); err == nil {
		t.Error("memctrl.New accepted 12 banks")
	}
	spec := attack.Spec{Kind: attack.DoubleSided}
	if _, _, err := spec.Synthesize(cfg.Geo, attack.Target{Bank: 0, Row: 200}); err == nil {
		t.Error("Synthesize accepted 12 banks")
	}
	if _, err := Run(cfg, quickMix(1, 1)); err == nil {
		t.Error("Run accepted 12 banks")
	}
}

// TestMultiRankRejected pins that a channel with more than one rank is an
// error: the controller issues every command to rank 0, so two requests
// to one bank and row in different ranks would share a single ACT.
func TestMultiRankRejected(t *testing.T) {
	cfg := quickConfig()
	cfg.Geo.Ranks = 2
	ch, err := dram.NewChannel(cfg.Geo, cfg.T)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memctrl.New(cfg.Ctrl, ch, nil); err == nil {
		t.Error("memctrl.New accepted a 2-rank channel")
	}
	if _, err := Run(cfg, quickMix(1, 1)); err == nil {
		t.Error("Run accepted a 2-rank channel")
	}
}

func TestRequesterStatsReachController(t *testing.T) {
	cfg := quickConfig()
	mix := quickMix(3, 5)
	res, err := Run(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	// Every core's ID must arrive at the controller as a requester with
	// demand reads attributed to it: the cpu→cache→memctrl identity path.
	if len(res.Ctrl.PerRequester) < len(mix.Traces) {
		t.Fatalf("controller saw %d requesters, want ≥%d", len(res.Ctrl.PerRequester), len(mix.Traces))
	}
	var sum int64
	for i := range mix.Traces {
		rs := res.Ctrl.PerRequester[i]
		if rs.Reads == 0 {
			t.Errorf("core %d: no reads attributed", i)
		}
		sum += rs.Reads
	}
	if sum != res.Ctrl.Reads {
		t.Errorf("per-requester reads sum %d != total %d (attribution leak)", sum, res.Ctrl.Reads)
	}
}

func TestBLISSSchedulerRunCompletes(t *testing.T) {
	cfg := quickConfig()
	cfg.Ctrl.BLISS = true
	mix := quickMix(4, 6)
	res, err := Run(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 {
			t.Errorf("core %d starved under BLISS (IPC %v)", i, ipc)
		}
	}
	if res.Ctrl.BLISSBlacklists == 0 {
		t.Error("no blacklisting events on a multi-core memory-intensive mix")
	}
}

func TestIdealMechanismNearZeroOverheadAtHighHCFirst(t *testing.T) {
	cfg := quickConfig()
	mix := quickMix(4, 4)
	ideal, err := mitigation.NewIdeal(cfg.MitigationParams(100_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mechanism = ideal
	res, err := Run(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthOverheadPct > 0.5 {
		t.Errorf("ideal mechanism at HCfirst=100k has %.3f%% overhead, want ~0", res.BandwidthOverheadPct)
	}
}
