package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/attack"
)

func TestSpecRoundTrip(t *testing.T) {
	spec, err := NewSpec("attack", 7, AttackParams{
		Mechanisms: []MechanismID{MechNone, MechIdeal},
		HCSweep:    []int{512},
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("encode/decode/encode not stable:\n%s\nvs\n%s", enc, enc2)
	}
	if dec.Name != "attack" || dec.Seed != 7 {
		t.Errorf("round-trip lost fields: %+v", dec)
	}
}

func TestSpecSeedAndShardNormalization(t *testing.T) {
	spec, err := DecodeSpec([]byte(`{"name":"table1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 1 {
		t.Errorf("seed = %d, want 1 (zero normalizes)", spec.Seed)
	}
	if spec.Shard != (Shard{Index: 0, Count: 1}) {
		t.Errorf("shard = %+v, want 0/1", spec.Shard)
	}
}

func TestSpecUnknownNameError(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"name":"figure99"}`)); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown name error = %v, want unknown-experiment", err)
	}
	if _, err := NewSpec("nope", 1, nil); err == nil {
		t.Error("NewSpec accepted an unregistered name")
	}
}

func TestSpecBadShardError(t *testing.T) {
	for _, bad := range []string{
		`{"name":"table1","shard":{"index":2,"count":2}}`,
		`{"name":"table1","shard":{"index":-1,"count":4}}`,
	} {
		if _, err := DecodeSpec([]byte(bad)); err == nil ||
			!strings.Contains(err.Error(), "shard") {
			t.Errorf("%s: error = %v, want shard validation failure", bad, err)
		}
	}
	for _, bad := range []string{"3", "a/b", "4/2", "-1/2", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
	s, err := ParseShard("2/8")
	if err != nil || s.Index != 2 || s.Count != 8 {
		t.Errorf("ParseShard(2/8) = %+v, %v", s, err)
	}
}

func TestSpecUnknownParamFieldError(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"name":"fig5","params":{"scael":"tiny"}}`)); err == nil ||
		!strings.Contains(err.Error(), "params") {
		t.Errorf("typoed param error = %v, want bad-params", err)
	}
	// Params of another experiment family must not validate.
	if _, err := DecodeSpec([]byte(`{"name":"fig5","params":{"mem_cycles":1000}}`)); err == nil {
		t.Error("fig5 accepted attack params")
	}
}

func TestParetoParamsRejectNonPositiveBLISSAxes(t *testing.T) {
	for _, bad := range []string{
		`{"name":"pareto","params":{"bliss_streaks":[0]}}`,
		`{"name":"pareto","params":{"bliss_streaks":[-2]}}`,
		`{"name":"pareto","params":{"bliss_clears":[0,10000]}}`,
	} {
		if _, err := DecodeSpec([]byte(bad)); err == nil ||
			!strings.Contains(err.Error(), "not positive") {
			t.Errorf("%s: error = %v, want non-positive axis rejection", bad, err)
		}
	}
	if _, err := DecodeSpec([]byte(`{"name":"pareto","params":{"bliss_streaks":[2,8]}}`)); err != nil {
		t.Errorf("positive axes rejected: %v", err)
	}
}

// TestAttackPacingSpecValidation pins the bugfix at the spec layer:
// out-of-range duty_cycle/phase inside the attack/pareto families' attack
// block must fail strict decode with a clear error, not silently run an
// unpaced stream.
func TestAttackPacingSpecValidation(t *testing.T) {
	bad := []struct{ spec, want string }{
		{`{"name":"attack","params":{"attack":{"duty_cycle":1.5}}}`, "duty_cycle"},
		{`{"name":"attack","params":{"attack":{"duty_cycle":1}}}`, "duty_cycle"},
		{`{"name":"attack","params":{"attack":{"duty_cycle":-0.25}}}`, "duty_cycle"},
		{`{"name":"attack","params":{"attack":{"duty_cycle":0.5,"phase":1.25}}}`, "phase"},
		{`{"name":"pareto","params":{"attack":{"duty_cycle":2}}}`, "duty_cycle"},
		{`{"name":"pareto","params":{"attack":{"phase":-0.5}}}`, "phase"},
		// Phase without duty_cycle would be a silent no-op: rejected too.
		{`{"name":"attack","params":{"attack":{"phase":0.5}}}`, "phase"},
	}
	for _, b := range bad {
		if _, err := DecodeSpec([]byte(b.spec)); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: error = %v, want mention of %q", b.spec, err, b.want)
		}
	}
	for _, good := range []string{
		`{"name":"attack","params":{"attack":{"duty_cycle":0.5,"phase":0.25}}}`,
		`{"name":"pareto","params":{"attack":{"duty_cycle":0.99}}}`,
	} {
		if _, err := DecodeSpec([]byte(good)); err != nil {
			t.Errorf("%s: rejected: %v", good, err)
		}
	}
}

func TestShardPartitionCoversGridExactlyOnce(t *testing.T) {
	keys := []string{
		"DDR4-new/Mfr.A/K4-chip00", "DDR4-old/Mfr.C/K9-chip01",
		"mech=PARA/sched=FR-FCFS/pat=decoy/hc=512",
		"mech=None/sched=BLISS[s=8,c=20000]/hc=4800/pat=benign-only",
		"census", "modules", "a", "b", "c", "d", "e", "f",
	}
	for count := 1; count <= 5; count++ {
		for _, key := range keys {
			owners := 0
			for idx := 0; idx < count; idx++ {
				if (Shard{Index: idx, Count: count}).owns(key) {
					owners++
				}
			}
			if owners != 1 {
				t.Errorf("count=%d key=%q owned by %d shards, want exactly 1", count, key, owners)
			}
		}
	}
}

func TestExperimentsListing(t *testing.T) {
	infos := Experiments()
	if len(infos) != len(registry) {
		t.Fatalf("Experiments() lists %d of %d registered", len(infos), len(registry))
	}
	for _, want := range []string{"table1", "table8", "fig4", "fig10", "attack", "pareto", "trr-dodge"} {
		found := false
		for _, e := range infos {
			if e.Name == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registry missing %q", want)
		}
	}
	// The listing order is canonical and leads with the paper order.
	if infos[0].Name != "table1" || infos[len(infos)-1].Name != "trr-dodge" {
		t.Errorf("unexpected listing order: first=%s last=%s", infos[0].Name, infos[len(infos)-1].Name)
	}
}

func TestResultIncompleteArtifactError(t *testing.T) {
	spec, err := NewSpec("table2", 1, CharParams{Scale: "tiny", Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec.Shard = Shard{Index: 0, Count: 3}
	res, err := RunContext(context.Background(), spec, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Skip("shard 0/3 happened to own every task")
	}
	if _, err := res.Artifact(); err == nil {
		t.Error("Artifact() succeeded on an incomplete shard result")
	}
}

func TestMergeRejectsMismatchedSpecs(t *testing.T) {
	specA, _ := NewSpec("table1", 1, nil)
	specB, _ := NewSpec("table1", 2, nil)
	a, err := RunContext(context.Background(), specA, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), specB, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeResults(a, b); err == nil {
		t.Error("merge accepted results of different seeds")
	}
	if merged, err := MergeResults(a, a); err != nil || !merged.Complete() {
		t.Errorf("self-merge (idempotent union) failed: %v", err)
	}
}

// TestDecodeSpecRejectsBadAxes pins axis validation at decode: a value no
// grid cell can evaluate fails DecodeSpec (and with it a service submit)
// instead of task 0 of the run.
func TestDecodeSpecRejectsBadAxes(t *testing.T) {
	cases := []struct{ spec, want string }{
		{`{"name":"attack","params":{"mechanisms":["Nope"]}}`, `unknown mechanism "Nope"`},
		{`{"name":"attack","params":{"patterns":["triple-sided"]}}`, `unknown attack pattern "triple-sided"`},
		{`{"name":"attack","params":{"scheduler":"FIFO"}}`, `unknown scheduler "FIFO"`},
		{`{"name":"attack","params":{"hc":[512,0]}}`, "hc value 0 not positive"},
		{`{"name":"fig10","params":{"mechanisms":["PARA","none"]}}`, `unknown mechanism "none"`},
		{`{"name":"fig10","params":{"hc":[-64]}}`, "hc value -64 not positive"},
		{`{"name":"pareto","params":{"mechanisms":["Ideal","Nope"]}}`, `unknown mechanism "Nope"`},
		{`{"name":"pareto","params":{"schedulers":["BLISS","FIFO"]}}`, `unknown scheduler "FIFO"`},
		{`{"name":"pareto","params":{"patterns":["Decoy"]}}`, `unknown attack pattern "Decoy"`},
		{`{"name":"pareto","params":{"hc":[0]}}`, "hc value 0 not positive"},
		{`{"name":"trr-dodge","params":{"patterns":[""]}}`, `unknown attack pattern ""`},
		{`{"name":"fig5","params":{"scale":"huge"}}`, `unknown scale "huge"`},
		{`{"name":"table1","params":{"modules":"ddr5"}}`, `unknown module set "ddr5"`},
		{`{"name":"fig5","params":{"custom_scale":{"Banks":1,"Rows":1,"RowBits":128}}}`, "rows must be at least 4"},
		{`{"name":"fig5","params":{"modules":"ddr4","custom_scale":{"Banks":1,"Rows":256,"RowBits":32}}}`, "row bits must be at least 64"},
		{`{"name":"table4","params":{"custom_scale":{"Banks":0,"Rows":256,"RowBits":1024}}}`, "banks must be positive"},
		{`{"name":"table4","params":{"custom_scale":{"Banks":1,"Rows":256,"RowBits":192}}}`, "divisible by 128"},
		{`{"name":"table4","params":{"custom_scale":{"Banks":1,"Rows":255,"RowBits":1024}}}`, "even row count"},
		{`{"name":"table5","params":{"iterations":-3}}`, "iterations must not be negative, got -3"},
		{`{"name":"fig4","params":{"iterations":-1}}`, "iterations must not be negative, got -1"},
		{`{"name":"fig5","params":{"stride":-2}}`, "stride must not be negative, got -2"},
		{`{"name":"table4","params":{"chips":-7}}`, "got -7"},
		// Sizes: a negative one would run as the default, and a bank too
		// small for the attack synthesizer would fail every task.
		{`{"name":"attack","params":{"rows":15}}`, "rows 15 below the minimum of 16"},
		{`{"name":"attack","params":{"rows":3}}`, "rows 3 below the minimum of 16"},
		{`{"name":"attack","params":{"rows":-5}}`, "rows must not be negative, got -5"},
		{`{"name":"attack","params":{"benign_cores":-1}}`, "benign_cores must not be negative"},
		{`{"name":"attack","params":{"trace_records":-2}}`, "trace_records must not be negative"},
		{`{"name":"attack","params":{"mem_cycles":-3}}`, "mem_cycles must not be negative"},
		{`{"name":"attack","params":{"attack_records":-4}}`, "attack_records must not be negative"},
		{`{"name":"pareto","params":{"rows":1}}`, "rows 1 below the minimum of 16"},
		{`{"name":"pareto","params":{"benign_cores":-1}}`, "benign_cores must not be negative"},
		{`{"name":"pareto","params":{"mem_cycles":-1}}`, "mem_cycles must not be negative"},
		{`{"name":"trr-dodge","params":{"rows":8}}`, "rows 8 below the minimum of 16"},
		{`{"name":"trr-dodge","params":{"benign_cores":-1}}`, "benign_cores must not be negative"},
		{`{"name":"trr-dodge","params":{"attack_records":-1}}`, "attack_records must not be negative"},
		{`{"name":"fig10","params":{"mixes":-1}}`, "mixes must not be negative, got -1"},
		{`{"name":"fig10","params":{"cores":-8}}`, "cores must not be negative"},
		{`{"name":"fig10","params":{"trace_records":-1}}`, "trace_records must not be negative"},
		{`{"name":"fig10","params":{"warmup_insts":-1000}}`, "warmup_insts must not be negative"},
		{`{"name":"fig10","params":{"measure_insts":-1}}`, "measure_insts must not be negative"},
		// Fields a sweep overwrites or ignores: each would only move the
		// store key. rows above Table 6 would size the observer's per-row
		// arrays without a cap.
		{`{"name":"attack","params":{"attack":{"kind":"decoy"}}}`, "attack.kind"},
		{`{"name":"attack","params":{"attack":{"records":64}}}`, "attack.records"},
		{`{"name":"attack","params":{"attack":{"seed":99}}}`, "attack.seed"},
		{`{"name":"pareto","params":{"attack":{"duty_cycle":0.5,"records":64}}}`, "attack_records"},
		{`{"name":"pareto","params":{"attack":{"kind":"decoy"}}}`, "patterns"},
		{`{"name":"pareto","params":{"schedulers":["FR-FCFS"],"bliss_streaks":[2]}}`, "apply only to BLISS"},
		{`{"name":"pareto","params":{"schedulers":["FR-FCFS"],"bliss_clears":[1000]}}`, "apply only to BLISS"},
		{`{"name":"trr-dodge","params":{"duty_cycles":[0],"phases":[0.25]}}`, "every duty_cycles value is 0"},
		{`{"name":"attack","params":{"rows":16385}}`, "rows 16385 above the Table 6 geometry's 16384"},
		{`{"name":"pareto","params":{"rows":2097152}}`, "above the Table 6 geometry"},
		{`{"name":"trr-dodge","params":{"rows":1073741824}}`, "above the Table 6 geometry"},
	}
	for _, tc := range cases {
		if _, err := DecodeSpec([]byte(tc.spec)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want mention of %q", tc.spec, err, tc.want)
		}
	}
	// Every value the runners know still decodes.
	mechs := append(AllMechanisms(), MechNone, MechBlockHammer, MechBlockHammerBinary, MechBlockHammerBlanket, MechTRR)
	if _, err := NewSpec("pareto", 1, ParetoParams{
		Mechanisms: mechs,
		Schedulers: append(Schedulers(), ""),
		Patterns:   attack.Kinds(),
		HCSweep:    DefaultHCSweep(),
	}); err != nil {
		t.Errorf("every known axis value rejected: %v", err)
	}
	// An omitted schedulers list means both, so the BLISS axes apply, as
	// phases do beside one paced duty cycle, and the Table 6 rows.
	for _, spec := range []string{
		`{"name":"pareto","params":{"bliss_streaks":[2,8],"bliss_clears":[1000]}}`,
		`{"name":"trr-dodge","params":{"duty_cycles":[0,0.5],"phases":[0.25]}}`,
		`{"name":"attack","params":{"rows":16384,"attack":{"duty_cycle":0.5,"phase":0.25}}}`,
	} {
		if _, err := DecodeSpec([]byte(spec)); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
}

// TestExperimentsListResolvedDefaults pins the registry listing: every
// experiment's DefaultParams are the defaults its runner resolves (not
// the all-omitted zero struct), they decode strictly into the params
// struct, and normalizing them again changes nothing.
func TestExperimentsListResolvedDefaults(t *testing.T) {
	want := map[string]string{
		"attack":    `"hc":[10000,4800,2000,512]`,
		"fig4":      `"iterations":10`,
		"table5":    `"iterations":20`,
		"fig5":      `"chips":4`,
		"fig10":     `"mixes":48`,
		"pareto":    `"schedulers":["FR-FCFS","BLISS"]`,
		"trr-dodge": `"duty_cycles":[0,0.25,0.5]`,
	}
	for _, e := range Experiments() {
		if string(e.DefaultParams) == "{}" {
			t.Errorf("%s: DefaultParams is the empty zero struct", e.Name)
		}
		exp, err := lookup(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := exp.params(e.DefaultParams)
		if err != nil {
			t.Errorf("%s: DefaultParams %s do not decode: %v", e.Name, e.DefaultParams, err)
			continue
		}
		again, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, e.DefaultParams) {
			t.Errorf("%s: normalizing the defaults changed them:\n%s\nvs\n%s", e.Name, e.DefaultParams, again)
		}
		if w, ok := want[e.Name]; ok && !strings.Contains(string(e.DefaultParams), w) {
			t.Errorf("%s: DefaultParams %s lack %s", e.Name, e.DefaultParams, w)
		}
	}
}

// FuzzDecodeSpec drives arbitrary bytes through DecodeSpec, the boundary
// HTTP submissions and spec files cross. Decoding never panics, and an
// accepted spec's canonical encoding is a fixed point: it decodes and
// re-encodes to the same bytes under the same SpecHash. The seed corpus
// (testdata/fuzz/FuzzDecodeSpec) holds every default spec plus the CI
// smoke specs.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		enc, err := spec.Encode()
		if err != nil {
			t.Fatalf("encode accepted spec: %v", err)
		}
		hash, err := spec.SpecHash()
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\n%s", err, enc)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding changed the canonical bytes:\n%s\nvs\n%s", enc, enc2)
		}
		if hash2, err := again.SpecHash(); err != nil || hash2 != hash {
			t.Fatalf("SpecHash changed across the round trip: %s vs %s (%v)", hash, hash2, err)
		}
	})
}
