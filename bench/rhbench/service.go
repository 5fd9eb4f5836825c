package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// The service workload: an in-process serve.Server on a loopback
// listener, driven by `workers` closed-loop clients over at most as many
// connections. One pass (rep) is passRequests requests from a seeded
// schedule, passCold of them cold — a spec never submitted before, sent
// asynchronously, followed on its SSE stream to the terminal frame and
// then fetched — and the rest warm: a resubmit of a spec that has
// completed, which must come back from the store.
const (
	passRequests = 600
	passCold     = 30
	// poolSize is how many of the most recently completed specs warm
	// requests choose from. Bounding it keeps the harness's own memory,
	// and so the process's heap and garbage collection, the same from
	// pass to pass.
	poolSize = 2 * passCold
	// directChecks is how many cold results are recomputed directly with
	// core.RunContext after the timed loop and compared byte for byte.
	directChecks = 5
	// requestTimeout bounds one request, SSE stream included.
	requestTimeout = 60 * time.Second
)

// coldSpec is the service's cold-job spec: Figure 5 at tiny scale.
func coldSpec(seed uint64) (core.ExperimentSpec, error) {
	return core.NewSpec("fig5", seed, core.CharParams{Scale: "tiny", Chips: 2, Iterations: 2})
}

// request is one scheduled request.
type request struct {
	cold bool
	spec core.ExperimentSpec
	body []byte // canonical spec bytes, the POST body
	hash string
}

type serviceRun struct {
	seed int64
	t    *tally
	dir  string

	st     *store.Store
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client

	// pool holds the completed specs warm requests choose from; a pass
	// adds its cold specs at its end, dropping the oldest beyond
	// poolSize, so every pick is fixed by the seed.
	pool   []request
	colds  int // cold specs issued so far
	passes int
	// tasksPerCold is the engine task count of one cold job.
	tasksPerCold int

	mu      sync.Mutex
	bodies  map[string][]byte // spec hash → result bytes of its cold request, for the pool and the checks
	checks  []request         // the first cold requests, for the direct check
	warmMS  []float64
	coldMS  []float64
	queueMS []float64
}

func (s *serviceRun) setup() error {
	dir, err := os.MkdirTemp(s.dir, "serve-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: workers, Shards: workers, Exec: core.Exec{Parallelism: workers}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.st, s.srv = st, srv
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}
	s.bodies = map[string][]byte{}
	s.pool, s.checks = nil, nil
	s.colds, s.passes = 0, 0
	s.warmMS, s.coldMS, s.queueMS = nil, nil, nil

	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if err := s.registry(ctx); err != nil {
		return err
	}
	// One completed job, so the first pass has a spec to re-request.
	prime, err := s.newCold()
	if err != nil {
		return err
	}
	body, err := s.post(ctx, prime.body, "?wait=1", http.StatusOK)
	if err != nil {
		return fmt.Errorf("prime job: %w", err)
	}
	res, err := core.DecodeResult(body)
	if err != nil {
		return fmt.Errorf("prime job: %w", err)
	}
	s.tasksPerCold = res.Tasks
	s.bodies[prime.hash] = body
	s.pool = append(s.pool, prime)
	s.checks = append(s.checks, prime)
	return nil
}

// registry is the /v1/registry round trip a client starts with.
func (s *serviceRun) registry(ctx context.Context) error {
	body, err := s.get(ctx, "/v1/registry", http.StatusOK)
	if err != nil {
		return err
	}
	var doc struct {
		Experiments []json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Experiments) == 0 {
		return fmt.Errorf("registry: %d experiments, decode error %v", len(doc.Experiments), err)
	}
	return nil
}

func (s *serviceRun) teardown() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
	os.RemoveAll(s.st.Root())
	s.hs = nil
}

// minReps: a traced run's percentiles need seven untraced passes plus
// the traced one, for over 200 cold samples.
func (s *serviceRun) minReps(traced bool) int {
	if traced {
		return 7
	}
	return 1
}

func (s *serviceRun) newCold() (request, error) {
	spec, err := coldSpec(specSeed(s.seed, uint64(1+s.colds)))
	if err != nil {
		return request{}, err
	}
	s.colds++
	body, err := spec.Encode()
	if err != nil {
		return request{}, err
	}
	hash, err := spec.SpecHash()
	return request{cold: true, spec: spec, body: body, hash: hash}, err
}

// schedule draws one pass's requests from the seed and the pass index.
func (s *serviceRun) schedule() ([]request, error) {
	rng := rand.New(rand.NewSource(int64(specSeed(s.seed, 1<<32+uint64(s.passes)))))
	s.passes++
	cold := map[int]bool{}
	for _, i := range rng.Perm(passRequests)[:passCold] {
		cold[i] = true
	}
	out := make([]request, passRequests)
	for i := range out {
		if cold[i] {
			rq, err := s.newCold()
			if err != nil {
				return nil, err
			}
			out[i] = rq
			continue
		}
		out[i] = s.pool[rng.Intn(len(s.pool))]
		out[i].cold = false
	}
	return out, nil
}

// rep runs one pass with the closed-loop clients.
func (s *serviceRun) rep(sp *spans, parent int) (int, error) {
	reqs, err := s.schedule()
	if err != nil {
		return 0, err
	}
	pass := sp.begin("pass", parent)
	defer sp.end(pass)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s.do(sp, pass, reqs[i])
			}
		}()
	}
	wg.Wait()
	for _, rq := range reqs {
		if !rq.cold {
			continue
		}
		if len(s.checks) < directChecks {
			s.checks = append(s.checks, rq)
		}
		s.pool = append(s.pool, rq)
		if len(s.pool) > poolSize {
			old := s.pool[0]
			s.pool = s.pool[1:]
			if !slices.ContainsFunc(s.checks, func(c request) bool { return c.hash == old.hash }) {
				s.mu.Lock()
				delete(s.bodies, old.hash)
				s.mu.Unlock()
			}
		}
	}
	return passCold * s.tasksPerCold, nil
}

// do sends one request and checks its answer: one attempted operation,
// failed when the request errs or its answer is wrong. The clients carry
// on after a failure.
func (s *serviceRun) do(sp *spans, parent int, rq request) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	kind := "warm"
	if rq.cold {
		kind = "cold"
	}
	id := sp.begin(kind+" "+rq.hash[:12], parent)
	defer sp.end(id)
	if rq.cold {
		err := s.cold(ctx, sp, id, rq)
		s.t.check(err == nil, "cold %s: %v", rq.hash, err)
		return
	}
	s.mu.Lock()
	want := s.bodies[rq.hash]
	s.mu.Unlock()
	t0 := time.Now()
	resp, body, err := s.do1(ctx, http.MethodPost, "/v1/experiments", rq.body)
	lat := msSince(t0)
	if err == nil && (resp.StatusCode != http.StatusOK || resp.Header.Get("X-RHX-Cache") != "hit" || !bytes.Equal(body, want)) {
		err = fmt.Errorf("status %d, cache %q, body equal to its cold body %v",
			resp.StatusCode, resp.Header.Get("X-RHX-Cache"), bytes.Equal(body, want))
	}
	if s.t.check(err == nil, "warm %s: %v", rq.hash, err) {
		s.mu.Lock()
		s.warmMS = append(s.warmMS, lat)
		s.mu.Unlock()
	}
}

// cold submits asynchronously, follows the SSE stream to its terminal
// frame and fetches the result; latency runs from the submit to the last
// byte of the result.
func (s *serviceRun) cold(ctx context.Context, sp *spans, parent int, rq request) error {
	t0 := time.Now()
	body, err := s.post(ctx, rq.body, "", http.StatusAccepted)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var ack struct{ Hash string }
	if err := json.Unmarshal(body, &ack); err != nil || ack.Hash != rq.hash {
		return fmt.Errorf("submit acknowledged %q (%v)", ack.Hash, err)
	}
	queue := -1.0
	terminal := ""
	err = s.events(ctx, rq.hash, func(event string, data []byte) {
		id := sp.begin("sse "+event, parent)
		sp.end(id)
		var f struct{ Status string }
		json.Unmarshal(data, &f)
		switch {
		case event == "shard" && f.Status == "running" && queue < 0:
			queue = msSince(t0)
		case event == "status":
			terminal = f.Status
		}
	})
	if err != nil || terminal != "done" {
		return fmt.Errorf("events ended with %q (%v)", terminal, err)
	}
	result, err := s.get(ctx, "/v1/experiments/"+rq.hash, http.StatusOK)
	lat := msSince(t0)
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bodies[rq.hash] = result
	s.coldMS = append(s.coldMS, lat)
	if queue >= 0 {
		s.queueMS = append(s.queueMS, queue)
	}
	return nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// do1 sends one request and reads the whole response body.
func (s *serviceRun) do1(ctx context.Context, method, path string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

func (s *serviceRun) post(ctx context.Context, spec []byte, query string, want int) ([]byte, error) {
	resp, body, err := s.do1(ctx, http.MethodPost, "/v1/experiments"+query, spec)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST status %d, want %d: %s", resp.StatusCode, want, bytes.TrimSpace(body))
	}
	return body, nil
}

func (s *serviceRun) get(ctx context.Context, path string, want int) ([]byte, error) {
	resp, body, err := s.do1(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("GET %s status %d, want %d", path, resp.StatusCode, want)
	}
	return body, nil
}

// events follows a job's SSE stream until the server ends it, calling
// onFrame for every frame.
func (s *serviceRun) events(ctx context.Context, hash string, onFrame func(event string, data []byte)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/experiments/"+hash+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events status %d", resp.StatusCode)
	}
	return readSSE(resp.Body, onFrame)
}

// readSSE parses a text/event-stream body into (event, data) frames.
func readSSE(r io.Reader, onFrame func(event string, data []byte)) error {
	sc := bufio.NewScanner(r)
	event, data := "", []byte(nil)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" || data != nil {
				onFrame(event, data)
			}
			event, data = "", nil
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	return sc.Err()
}

// verify recomputes the first cold results directly with core.RunContext
// (after the timed loop, so it costs the measurement nothing).
func (s *serviceRun) verify() error {
	for _, rq := range s.checks {
		res, err := core.RunContext(context.Background(), rq.spec, core.Exec{Parallelism: workers})
		if err != nil {
			return err
		}
		raw, err := res.Encode()
		if err != nil {
			return err
		}
		s.mu.Lock()
		served := s.bodies[rq.hash]
		s.mu.Unlock()
		s.t.check(bytes.Equal(raw, served), "cold %s: served result differs from a direct core.RunContext encode", rq.hash)
	}
	return nil
}

func (s *serviceRun) layerValues(values map[string]float64) error {
	var err error
	if values["serve.queue_wait_p50_ms"], err = percentile(s.queueMS, 50); err != nil {
		return fmt.Errorf("queue wait: %w", err)
	}
	if values["serve.warm_p50_ms"], err = percentile(s.warmMS, 50); err != nil {
		return fmt.Errorf("warm latency: %w", err)
	}
	if values["serve.warm_p99_ms"], err = percentile(s.warmMS, 99); err != nil {
		return fmt.Errorf("warm latency: %w", err)
	}
	if values["serve.cold_p50_ms"], err = percentile(s.coldMS, 50); err != nil {
		return fmt.Errorf("cold latency: %w", err)
	}
	if values["serve.cold_p95_ms"], err = percentile(s.coldMS, 95); err != nil {
		return fmt.Errorf("cold latency: %w", err)
	}
	// GC(0) removes, and counts, only the entries that fail verification.
	quarantined, err := s.st.GC(0)
	if err != nil {
		return err
	}
	entries, err := s.st.List()
	if err != nil {
		return err
	}
	values["store.entries"] = float64(len(entries))
	values["store.quarantined"] = float64(quarantined)
	return nil
}
