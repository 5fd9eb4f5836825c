package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spans records harness-level spans (workload → rep → request or SSE
// frame → probe) in memory during a traced run and writes them out at
// exit in the Chrome trace-event format, which chrome://tracing and
// Perfetto open directly. A nil *spans records nothing, so untraced code
// paths call it unconditionally.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

type span struct {
	name          string
	parent, trace int // span id of the parent and of the trace root; 0 = none
	start, end    time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	tr := id
	if parent > 0 {
		tr = s.list[parent-1].trace
	}
	s.list = append(s.list, span{name: name, parent: parent, trace: tr, start: now, end: -1})
	return id
}

// end closes the span.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	s.list[id-1].end = now
	s.mu.Unlock()
}

// write stores the spans as a trace-event JSON file. Each trace root gets
// its own track; args carry the span and parent ids.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	s.mu.Lock()
	events := make([]event, 0, len(s.list))
	for i, sp := range s.list {
		end := sp.end
		if end < 0 {
			end = sp.start
		}
		events = append(events, event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: sp.trace,
			Ts:   float64(sp.start.Nanoseconds()) / 1e3,
			Dur:  float64((end - sp.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i + 1, "parent": sp.parent},
		})
	}
	s.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
