package rowhammer_test

import (
	"context"
	"testing"

	rowhammer "repro"
)

// TestPublicAPIQuickstart exercises the README's quickstart path through
// the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	chip, err := rowhammer.NewChip(rowhammer.ChipConfig{
		Name: "api-test", Banks: 1, Rows: 256, RowBits: 1024,
		HCFirst: 8_000, Rate150k: 1e-4,
		WorstPattern: rowhammer.RowStripe0, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tester, err := rowhammer.NewTester(chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	tester.WritePattern(rowhammer.RowStripe0)
	victim := chip.WeakestCell().Row
	flips, err := tester.HammerDoubleSided(victim, 3*8_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) == 0 {
		t.Fatal("no flips above threshold")
	}
	hc, found, err := tester.MeasureHCFirst(1)
	if err != nil || !found {
		t.Fatalf("HCfirst not found: %v", err)
	}
	if hc < 4_000 || hc > 14_000 {
		t.Errorf("measured HCfirst %d far from 8k", hc)
	}
}

func TestPublicAPIPopulation(t *testing.T) {
	pop := rowhammer.NewPopulation(rowhammer.AllModules(), rowhammer.ScaleTiny, 1)
	if len(pop.Chips) == 0 {
		t.Fatal("empty population")
	}
	if len(pop.Census()) == 0 {
		t.Fatal("empty census")
	}
	chip, err := pop.Instantiate(pop.Chips[0])
	if err != nil {
		t.Fatal(err)
	}
	if chip.Rows() != rowhammer.ScaleTiny.Rows {
		t.Errorf("instantiated rows = %d", chip.Rows())
	}
}

func TestPublicAPISimulation(t *testing.T) {
	cfg := rowhammer.Table6SimConfig(500, 4_000)
	mix := rowhammer.WorkloadMixes(1, 2, 500, 1)[0]
	res, err := rowhammer.RunSim(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIPC() <= 0 {
		t.Fatal("zero IPC")
	}
	para, err := rowhammer.NewPARA(cfg.MitigationParams(1_000, 1), cfg.T.TCKPS)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mechanism = para
	res2, err := rowhammer.RunSim(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mechanism != "PARA" {
		t.Errorf("mechanism = %q", res2.Mechanism)
	}
}

func TestPublicAPIExperimentRunners(t *testing.T) {
	run := func(name string) rowhammer.Artifact {
		t.Helper()
		spec, err := rowhammer.NewExperimentSpec(name, 1,
			rowhammer.CharParams{Scale: "tiny", Stride: 1, Chips: 1, Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rowhammer.RunExperiment(context.Background(), spec, rowhammer.ExperimentExec{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		art, err := res.Artifact()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return art
	}
	if t1 := run("table1").(*rowhammer.Table1); len(t1.Rows) == 0 {
		t.Error("Table 1: empty census")
	}
	if t2 := run("table2").(*rowhammer.Table2); len(t2.Rows) != 6 {
		t.Errorf("Table 2: %d rows, want 6", len(t2.Rows))
	}
	if len(run("table7").(*rowhammer.ModuleTable).Modules) != 110 {
		t.Error("Table 7 module count")
	}
	if len(run("table8").(*rowhammer.ModuleTable).Modules) != 60 {
		t.Error("Table 8 module count")
	}
}
