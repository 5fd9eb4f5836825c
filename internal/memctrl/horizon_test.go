//go:build !race

// The sweep drives one controller through 60 randomized runs on one
// goroutine. Under the race detector it takes about ten times as long
// (35 s against 3.3 s on a 2-vCPU VM), so it only runs in the regular
// test pass (CI runs both), beside the zero-alloc gates.

package memctrl

import (
	"testing"

	"repro/internal/dram"
)

// TestBLISSHorizonSweep widens TestSchedulerEquivalence's BLISS cells to
// ten seeds, where the probe-only bounds of NextWork's walk show: the
// next BLISS clear and the favored read's starvation onset. Under BLISS,
// BlockHammer carries the throttle horizon too, so its cells must tick
// below NextWork with stalls predicted. An idle controller, with nothing
// queued and no REF pending, must answer the next REF: a walk that loses
// it answers dram.Never, which runEquivalence would meet as an
// AdvanceIdle that never returns.
func TestBLISSHorizonSweep(t *testing.T) {
	blissSmall := blissConfig()
	blissSmall.ReadQueue, blissSmall.WriteQueue = 8, 4
	geo := dram.Table6Geometry()
	for _, cfg := range []Config{blissConfig(), blissSmall} {
		ch, err := dram.NewChannel(geo, dram.DDR4_2400(geo.Rows))
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(cfg, ch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.NextWork(); got == dram.Never || got > c.nextREF {
			t.Fatalf("%+v: an idle controller answers NextWork %d, after the next REF at %d", cfg, got, c.nextREF)
		}
	}
	var cases []eqCase
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{{"bliss", blissConfig()}, {"bliss-smallqueues", blissSmall}} {
		for _, mech := range []string{"none", "hammer", "blockhammer"} {
			cases = append(cases, eqCase{cfg.name + "-" + mech, cfg.cfg, geo, mech})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var census idleCensus
			for seed := int64(1); seed <= 10; seed++ {
				runEquivalence(t, tc, seed, 1000, &census)
			}
			t.Logf("%d Ticks below NextWork with requests queued, %d predicted stalls", census.queued, census.stalls)
			if tc.mech == "blockhammer" && census.stalls == 0 {
				t.Fatal("no Tick below the throttle horizon counted a stall")
			}
		})
	}
}
