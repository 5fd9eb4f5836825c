package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// goldenResults pins what a small spec of each registry experiment
// computes: the SHA-256 of its canonical result encoding and of its
// formatted artifact. The extra attack, pareto and trr-dodge specs cover
// the sweep options the default-shaped specs leave off: on-die ECC,
// attack pacing, BlockHammer, the BLISS parameter axes and a trr-dodge
// grid with benign cores. A change that is meant to move results
// regenerates the digests from the failure messages and lists the moved
// experiments.
var goldenResults = []struct {
	spec           string
	result, format string
}{
	{`{"name":"table1","params":{"scale":"tiny"}}`,
		"00956b26976fde4ec81011291fd5a46226c665db8ac937bb5ab3c8c3559f643f",
		"7f9c6088463a3bb707af058a6c8c76326f018666170c881ca36c2b0bfb01d92b"},
	{`{"name":"table2","params":{"scale":"tiny"}}`,
		"9600e0ecc5ea28b2cfe0ed4b1c692be37092902a7472e4dc35cdf52cbaa1e0c9",
		"a206fa339b16ff45fb4193a2ae9a1c09543550bc4d747f03d967ac4be686e2ca"},
	{`{"name":"fig4","params":{"scale":"tiny","chips":2,"iterations":2}}`,
		"eae89be1e1b275ab90d7d01761209aa3e3580d8afad6e45a45159aedf1780580",
		"3a24aed1223ad24a4f2dc9914cfe6b867181fb23a7912d55663b3c818ca1e3e5"},
	{`{"name":"table3","params":{"scale":"tiny","chips":2,"iterations":2}}`,
		"bf9fcced083f60599559525913398db5b74d0a8b12d9438f883480a5fde12b9d",
		"6349439eab57491853020f38916635739771af73b5e72bc308993ab19eb0673f"},
	{`{"name":"fig5","params":{"scale":"tiny","chips":2,"iterations":2}}`,
		"534ad05ba6b6cff511b6360ac087d4a816e7380627ec5e31b614bd3df0bdbb03",
		"4ceb6d8db89d30889008460d7adcede8000c03397760cb3d1809cf045372bde6"},
	{`{"name":"fig6","params":{"scale":"tiny","chips":2,"iterations":2}}`,
		"bb3941e8109e9fd7c31f8c53a8d834c1578bf45d0ba3d8e872802cd8147ce092",
		"fd5e24795661eab6244e4316c4a33f4ff94db1392b26a96e22cd2808bf5c2a9b"},
	{`{"name":"fig7","params":{"scale":"tiny","chips":2,"iterations":2}}`,
		"042bbc0fc7090dfed79dbca5618a0b0c8e0f9d0cbaa529459f74c59edd955a3d",
		"8f74f95f305d74a9e746b76ff3554eba0b72f9ee1282c226d22b3d1c714bc024"},
	{`{"name":"fig8","params":{"scale":"tiny","chips":2,"iterations":2}}`,
		"3e03ba7a10e3adc558a5b9ef58515cf3a820b2a56a48e6d42c79671abceb11a0",
		"dcfadae4af8df3686b1be279571533c40c718e348f0562134e3a814da3f83137"},
	{`{"name":"table4","params":{"scale":"tiny","chips":2,"iterations":2}}`,
		"6805c9783792a0e525ee87bd801663d607f0a27977a453014721fc13e206dcaf",
		"8aba17f0eb69748ef7ff56a999cf03a2aa9c1a1b165b9971855aa645b4581802"},
	{`{"name":"fig9","params":{"scale":"tiny","chips":2,"iterations":2}}`,
		"b9b1bb46712f6073156f219e8db7cb16897f10d622ba18244fc1ce850354b864",
		"6b390defb1c118fb11a0e9d8e85ca1fb165e58f469bd8e857b2188e377fd9ec5"},
	{`{"name":"table5","params":{"scale":"tiny","chips":2,"iterations":2}}`,
		"811aa9fb19936d13dd144142d9fc8880ce143e00033c896ec5ba0550c13b3104",
		"2555e73f60637fb6fef3f1cdad7aa4931f45f7eea723b2514b6d5623036e0bd1"},
	{`{"name":"table7"}`,
		"7d789425a78d6a12bcd1339f79c368074a990d1a8194c38ffea15028e5b70430",
		"c192562e0c10891d399d8220f75f668ac231b0f9bea2483745ff97d18e96e691"},
	{`{"name":"table8"}`,
		"d9524ca28a4463ff201dd2cdc5eebd72a537f625527655be2cfce9300cc4a014",
		"4e6305346437cf5aeb5799696259b8c5d5c472ade53fe5f7a5712dfeb3005914"},
	{`{"name":"fig10","seed":3,"params":{"mixes":2,"cores":2,"trace_records":800,"warmup_insts":500,"measure_insts":5000,"hc":[100000,2000],"mechanisms":["PARA","Ideal"]}}`,
		"5d8bdf3440cafc284823aa37d08c5ac920b216f49fc93b677888b85e44b0db3d",
		"f3248342e4f06ec5213e2231ac9533e4220b187f4425aa47f89c871aa34e8157"},
	{`{"name":"attack","seed":7,"params":{"patterns":["double-sided","scattered"],"mechanisms":["None","Ideal"],"hc":[512],"benign_cores":2,"trace_records":800,"mem_cycles":150000,"rows":1024}}`,
		"0519166bf99c8efce337c40a319d01a5131327d59c1591dace5da74b6490926e",
		"fde7fe8a11e4ee36c70298924179394582bd0ffbc02ae010370c1438ba9d3fd9"},
	{`{"name":"pareto","seed":7,"params":{"mechanisms":["None","Ideal"],"schedulers":["FR-FCFS","BLISS"],"patterns":["double-sided"],"hc":[512],"benign_cores":2,"trace_records":800,"mem_cycles":150000,"rows":1024}}`,
		"05e630c2fe9a35f36a84fc1375d877c67486851b40cf87b67f54a6844ff07e2b",
		"e4395d59d6f0bfee6e21ecc7cf3366159abab351d3c19b64f3cbf6d842490938"},
	{`{"name":"trr-dodge","seed":7,"params":{"duty_cycles":[0,0.25],"phases":[0,0.5],"mem_cycles":150000,"rows":1024}}`,
		"efafdb09b6366621726180f73cec94943d63f9769b345e4d5303a860ca3116be",
		"42fa66dcc20982cea1a7bbb0dc562cd2aa56b9806d55bb68ff20236cd63acf6c"},
	{`{"name":"attack","seed":5,"params":{"patterns":["double-sided","many-sided"],"mechanisms":["None","BlockHammer"],"hc":[100],"benign_cores":2,"trace_records":800,"mem_cycles":150000,"rows":1024,"ecc":true,"attack":{"duty_cycle":0.5,"phase":0.25}}}`,
		"6221b0e5e9e9cee4ffb087810c6da835284a8f3fee8127e919274e8d42ee2e0b",
		"b352a8a9f8448efc60e79030f431607680821933b94b6f4e94fd533bd6ece080"},
	{`{"name":"pareto","seed":7,"params":{"mechanisms":["None","BlockHammer"],"patterns":["double-sided"],"hc":[512],"benign_cores":2,"trace_records":800,"mem_cycles":150000,"rows":1024,"bliss_streaks":[2,8],"bliss_clears":[1000]}}`,
		"b79efe98db8642d130d7dcdd61223a00532f45e72b71235c509b92faa20299dd",
		"165fd0b2db737e1cd05db838c994d4b566ab404a2f06aaf65005ef2320f4bd84"},
	{`{"name":"trr-dodge","seed":9,"params":{"duty_cycles":[0,0.5],"phases":[0.25],"hc":100,"benign_cores":1,"trace_records":800,"mem_cycles":150000,"rows":1024,"ecc":true}}`,
		"512680162e381f580ebbe8d3f12c5883ec15fc2bc72d9ccfa9c60f9a51895fe2",
		"bd7d9fa2516d6f9f26380331389766e6eadb84e2514c9ddf6777b9270cc110e2"},
}

// TestResultGolden checks every golden spec's result and artifact bytes
// against the pinned digests, and that every registry experiment has at
// least one golden spec.
func TestResultGolden(t *testing.T) {
	// The Go compiler may fuse a multiply and an add into one rounding
	// (FMA) on arm64, ppc64le, s390x and riscv64, which moves a float
	// result in its last bit; on amd64 it never fuses them, and the
	// digests were computed there.
	if runtime.GOARCH != "amd64" {
		t.Skipf("result digests are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	covered := map[string]bool{}
	for _, g := range goldenResults {
		spec, err := DecodeSpec([]byte(g.spec))
		if err != nil {
			t.Fatalf("%s: %v", g.spec, err)
		}
		covered[spec.Name] = true
		res, err := RunContext(context.Background(), spec, Exec{})
		if err != nil {
			t.Fatalf("%s: %v", g.spec, err)
		}
		enc, err := res.Encode()
		if err != nil {
			t.Fatalf("%s: %v", g.spec, err)
		}
		text, err := res.Format()
		if err != nil {
			t.Fatalf("%s: %v", g.spec, err)
		}
		if got := digest(enc); got != g.result {
			t.Errorf("%s: result digest %s, want %s", g.spec, got, g.result)
		}
		if got := digest([]byte(text)); got != g.format {
			t.Errorf("%s: format digest %s, want %s", g.spec, got, g.format)
		}
	}
	for _, e := range Experiments() {
		if !covered[e.Name] {
			t.Errorf("experiment %q has no golden result spec", e.Name)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
