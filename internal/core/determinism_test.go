package core

import (
	"testing"
)

// The engine's contract: formatted experiment output is byte-identical
// regardless of worker count. These tests pin it for representative
// experiments of each shape — one-chip-per-config (Table 3), all-chips
// fan-out (Figure 9, Figure 8/Table 4), and the two-phase mitigation
// sweep (Figure 10).

// detChar is the tiny-scale characterization grid of these tests.
var detChar = CharParams{Scale: "tiny", Stride: 1, Chips: 2, Iterations: 2}

// formatted runs one experiment at the given parallelism and renders it.
func formatted(t *testing.T, name string, seed uint64, params any, parallelism int) string {
	t.Helper()
	art := runArtifact[Artifact](t, name, seed, params, Exec{Parallelism: parallelism})
	if f8, ok := art.(*Figure8); ok {
		return f8.FormatFigure8() + f8.FormatTable4()
	}
	return art.Format()
}

func TestCharacterizationParallelismInvariant(t *testing.T) {
	runners := []struct{ name, experiment string }{
		{"table2", "table2"},
		{"table3", "table3"},
		{"table5", "table5"},
		{"figure5", "fig5"},
		{"figure6", "fig6"},
		{"figure7", "fig7"},
		{"figure8+table4", "fig8"},
		{"figure9", "fig9"},
	}
	for _, tc := range runners {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			serial := formatted(t, tc.experiment, 1, detChar, 1)
			if serial == "" {
				t.Fatal("empty output")
			}
			parallel := formatted(t, tc.experiment, 1, detChar, 8)
			if serial != parallel {
				t.Errorf("output differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}

func TestFigure10ParallelismInvariant(t *testing.T) {
	p := Fig10Params{
		Mixes:        2,
		Cores:        2,
		TraceRecords: 800,
		WarmupInsts:  500,
		MeasureInsts: 5_000,
		HCSweep:      []int{100_000, 2_000, 256},
		Mechanisms:   []MechanismID{MechPARA, MechIdeal, MechProHIT},
	}
	serial := formatted(t, "fig10", 3, p, 1)
	parallel := formatted(t, "fig10", 3, p, 8)
	if serial != parallel {
		t.Errorf("Figure 10 output differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}
