package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// tinySpecJSON is the fast fig5 grid the suite submits.
const tinySpecJSON = `{
  "name": "fig5",
  "seed": 7,
  "params": {"scale": "tiny", "chips": 2, "iterations": 2}
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, spec string, wait bool) (*http.Response, []byte) {
	t.Helper()
	url := ts.URL + "/v1/experiments"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestSubmitTwiceSecondIsCacheHit is the PR's acceptance criterion over
// HTTP: the same spec submitted twice returns byte-identical result
// bodies, the second served from the store without running any tasks.
func TestSubmitTwiceSecondIsCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp1, body1 := submit(t, ts, tinySpecJSON, true)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-RHX-Cache"); got != "miss" {
		t.Fatalf("first submit X-RHX-Cache = %q, want miss", got)
	}
	hash := resp1.Header.Get("X-RHX-Hash")
	if len(hash) != 64 {
		t.Fatalf("bad X-RHX-Hash %q", hash)
	}

	resp2, body2 := submit(t, ts, tinySpecJSON, false) // no wait: hit answers instantly anyway
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submit: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-RHX-Cache"); got != "hit" {
		t.Fatalf("second submit X-RHX-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("result bodies differ between cold and cached submit")
	}

	// The body is the canonical result encoding: identical to an
	// in-process uncached run.
	spec, err := core.DecodeSpec([]byte(tinySpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunContext(context.Background(), spec, core.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, want) {
		t.Fatal("served body differs from the in-process canonical encoding")
	}

	// GET by hash serves the same bytes.
	resp3, err := http.Get(ts.URL + "/v1/experiments/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK || !bytes.Equal(body3, body1) {
		t.Fatalf("GET by hash: %d, identical=%v", resp3.StatusCode, bytes.Equal(body3, body1))
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := submit(t, ts, tinySpecJSON, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		Hash   string `json:"hash"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad ack %s: %v", body, err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/experiments/" + doc.Hash)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var res core.Result
			if err := json.Unmarshal(b, &res); err != nil {
				t.Fatalf("final body is not a result: %v", err)
			}
			if !res.Complete() {
				t.Fatal("final result incomplete")
			}
			return
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("poll: %d %s", resp.StatusCode, b)
		}
		if time.Now().After(deadline) {
			t.Fatal("experiment did not finish in time")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"unknown experiment", `{"name": "nope"}`, http.StatusBadRequest},
		{"not json", `{{{`, http.StatusBadRequest},
		{"typoed param", `{"name": "fig5", "params": {"scal": "tiny"}}`, http.StatusBadRequest},
		{"bad shard", `{"name": "fig5", "shard": {"index": 9, "count": 2}}`, http.StatusBadRequest},
		{"unknown mechanism", `{"name": "attack", "params": {"mechanisms": ["Nope"]}}`, http.StatusBadRequest},
		{"unknown pattern", `{"name": "pareto", "params": {"patterns": ["triple-sided"]}}`, http.StatusBadRequest},
		{"unknown scheduler", `{"name": "attack", "params": {"scheduler": "FIFO"}}`, http.StatusBadRequest},
		{"non-positive hc", `{"name": "fig10", "params": {"hc": [2000, 0]}}`, http.StatusBadRequest},
		{"one-row custom scale", `{"name": "fig5", "params": {"custom_scale": {"Banks": 1, "Rows": 1, "RowBits": 128}}}`, http.StatusBadRequest},
		{"sub-word custom rows", `{"name": "fig5", "params": {"modules": "ddr4", "custom_scale": {"Banks": 1, "Rows": 256, "RowBits": 32}}}`, http.StatusBadRequest},
		{"negative iterations", `{"name": "table5", "params": {"scale": "tiny", "iterations": -3}}`, http.StatusBadRequest},
		{"rows below the attack minimum", `{"name": "attack", "params": {"rows": 8}}`, http.StatusBadRequest},
		{"rows above the Table 6 geometry", `{"name": "attack", "params": {"rows": 1073741824}}`, http.StatusBadRequest},
		{"repeated hc", `{"name": "attack", "params": {"hc": [512, 512]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := submit(t, ts, tc.body, false)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("%s: got %d %s, want %d", tc.name, resp.StatusCode, body, tc.wantCode)
			}
			var doc map[string]string
			if err := json.Unmarshal(body, &doc); err != nil || doc["error"] == "" {
				t.Fatalf("error body %s is not an error doc", body)
			}
		})
	}
}

func TestGetUnknownHash(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{
		"/v1/experiments/" + strings.Repeat("ab", 32),
		"/v1/experiments/zzz",
		"/v1/experiments/" + strings.Repeat("ab", 32) + "/events",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestRegistryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registry: %d", resp.StatusCode)
	}
	var doc struct {
		Experiments []struct {
			Name            string          `json:"name"`
			DefaultParams   json.RawMessage `json:"default_params"`
			DefaultSpecHash string          `json:"default_spec_hash"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Experiments) != len(core.Experiments()) {
		t.Fatalf("registry lists %d experiments, want %d", len(doc.Experiments), len(core.Experiments()))
	}
	names := map[string]bool{}
	for _, e := range doc.Experiments {
		names[e.Name] = true
		if len(e.DefaultSpecHash) != 64 {
			t.Errorf("%s: bad default_spec_hash %q", e.Name, e.DefaultSpecHash)
		}
		// The listing shows the defaults the runner resolves, not the
		// all-omitted zero struct.
		var params map[string]json.RawMessage
		if err := json.Unmarshal(e.DefaultParams, &params); err != nil || len(params) == 0 {
			t.Errorf("%s: default_params %s not a resolved params object (%v)", e.Name, e.DefaultParams, err)
		}
		if e.Name == "attack" {
			var hc []int
			if err := json.Unmarshal(params["hc"], &hc); err != nil || !slices.Equal(hc, []int{10000, 4800, 2000, 512}) {
				t.Errorf("attack default_params hc = %v (%v), want the resolved sweep [10000 4800 2000 512]", hc, err)
			}
		}
	}
	for _, want := range []string{"fig5", "attack", "trr-dodge"} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

// TestEventsStreamShardProgress subscribes to the SSE stream during a
// run and checks the frame grammar: shard events then one terminal
// status event.
func TestEventsStreamShardProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Shards: 2})

	resp, body := submit(t, ts, tinySpecJSON, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var ack struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}

	sseResp, err := http.Get(ts.URL + "/v1/experiments/" + ack.Hash + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if sseResp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", sseResp.StatusCode)
	}
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}

	type frame struct{ kind, data string }
	var frames []frame
	scanner := bufio.NewScanner(sseResp.Body)
	cur := frame{}
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.kind != "" {
				frames = append(frames, cur)
			}
			cur = frame{}
		}
	}
	if len(frames) == 0 {
		t.Fatal("no SSE frames")
	}
	last := frames[len(frames)-1]
	if last.kind != "status" {
		t.Fatalf("last frame is %q, want status", last.kind)
	}
	var terminal struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(last.data), &terminal); err != nil || terminal.Status != "done" {
		t.Fatalf("terminal frame %s, want status done", last.data)
	}
	shardStatuses := map[string]int{}
	for _, f := range frames[:len(frames)-1] {
		if f.kind != "shard" {
			t.Fatalf("non-shard frame before terminal: %+v", f)
		}
		var ev store.Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("bad shard frame %s: %v", f.data, err)
		}
		shardStatuses[string(ev.Status)]++
	}
	// Two shards ran cold: 2 running, 2 done, 1 merged.
	if shardStatuses["running"] != 2 || shardStatuses["done"] != 2 || shardStatuses["merged"] != 1 {
		t.Fatalf("shard frame counts = %v, want 2 running / 2 done / 1 merged", shardStatuses)
	}

	// A late subscriber on a finished hash still gets a terminal event.
	late, err := http.Get(ts.URL + "/v1/experiments/" + ack.Hash + "/events")
	if err != nil {
		t.Fatal(err)
	}
	lateBody, _ := io.ReadAll(late.Body)
	late.Body.Close()
	if !strings.Contains(string(lateBody), `"status":"done"`) &&
		!strings.Contains(string(lateBody), `"status": "done"`) {
		t.Fatalf("late events stream lacks terminal done: %s", lateBody)
	}
}

// TestAbandonedWaitCancelsJob: an abandoned waited submission must
// cancel the in-flight job promptly (the serve half of the cancellation
// satellite).
func TestAbandonedWaitCancelsJob(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Store: st, Workers: 1, Shards: 1})

	// A deliberately heavier spec so the run is still in flight when we
	// abandon it.
	heavy := `{"name": "fig5", "seed": 3, "params": {"scale": "small", "chips": 4, "iterations": 4}}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/experiments?wait=1",
		strings.NewReader(heavy))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errCh <- err
	}()

	// Wait until the job exists, then abandon the request.
	spec, err := core.DecodeSpec([]byte(heavy))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.SpecHash()
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(cond func() bool, what string) {
		deadline := time.Now().Add(time.Minute)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	jobLive := func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.jobs[hash] != nil
	}
	waitFor(jobLive, "job to start")
	cancel()
	<-errCh

	// The job must terminate (canceled → failed → forgotten) well before
	// the full run would finish.
	waitFor(func() bool { return !jobLive() }, "job to be canceled and reaped")
	if st.Has(spec.WithoutShard()) {
		t.Fatal("abandoned run still produced a whole-grid entry")
	}
}

// TestDedupedConcurrentSubmits: two concurrent waited submissions of one
// spec share a single job and both get the identical body.
func TestDedupedConcurrentSubmits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	type out struct {
		code int
		body []byte
	}
	results := make(chan out, 2)
	var inFlight atomic.Int32
	for i := 0; i < 2; i++ {
		go func() {
			inFlight.Add(1)
			resp, err := http.Post(ts.URL+"/v1/experiments?wait=1", "application/json",
				strings.NewReader(tinySpecJSON))
			if err != nil {
				results <- out{code: -1}
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- out{code: resp.StatusCode, body: b}
		}()
	}
	a, b := <-results, <-results
	if a.code != http.StatusOK || b.code != http.StatusOK {
		t.Fatalf("codes %d / %d", a.code, b.code)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Fatal("concurrent submitters got different bodies")
	}
}

// TestShutdownCancelsJobs: Shutdown drains promptly even with a job in
// flight, because the root context cancels it.
func TestShutdownCancelsJobs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	heavy := `{"name": "fig5", "seed": 3, "params": {"scale": "small", "chips": 4, "iterations": 4}}`
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(heavy))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v (after %v)", err, time.Since(start))
	}
}

// TestWaitSubmitOnPartialCache: shard entries pre-seeded by a CLI run
// are reused by the service — the waited submit only computes the
// missing shard and still returns uncached-identical bytes.
func TestWaitSubmitOnPartialCache(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.DecodeSpec([]byte(tinySpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	for _, idx := range []int{0, 2} {
		ss := spec
		ss.Shard = core.Shard{Index: idx, Count: shards}
		res, err := core.RunContext(context.Background(), ss, core.Exec{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put(ss, res); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, Config{Store: st, Workers: 2, Shards: shards})
	resp, body := submit(t, ts, tinySpecJSON, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	res, err := core.RunContext(context.Background(), spec, core.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("partial-cache service result differs from uncached run")
	}
}

func TestPprofEndpointsGatedByConfig(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("goroutine")) {
		t.Fatal("pprof index does not list profiles")
	}
}
