package main

import (
	"testing"

	"repro/internal/trace"
)

func TestTraceRefusesNoRecords(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		if err := cmdTrace([]string{"-profile", "stream-copy", "-n", n}); err == nil {
			t.Errorf("rhx trace -n %s: no error", n)
		}
	}
}

func TestTraceSummary(t *testing.T) {
	p := trace.Catalog()[2]
	if p.Name != "stream-copy" {
		t.Fatalf("catalog entry 2 is %s, want stream-copy", p.Name)
	}
	const want = "trace stream-copy: 500 records, 14868 instructions, 44.8% writes, span 203947 KiB"
	if got := summary(p.Generate(500, 1)); got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}
