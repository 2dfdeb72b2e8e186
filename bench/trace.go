package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call: a request the generator sent, a stage the daemon
// reported inside it, or a call the replay made into a package.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Request string  `json:"request_id,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run shares the traced run's code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id for use as a parent.
func (t *tracer) add(parent int, name, request string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Request: request,
		StartUs: micros(start.Sub(t.t0)), EndUs: micros(end.Sub(t.t0)),
	})
	return id
}

// open starts a span that encloses others; close it with the returned func.
func (t *tracer) open(parent int, name string) (id int, done func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartUs: micros(start.Sub(t.t0))})
	t.mu.Unlock()
	return id, func() {
		end := micros(time.Since(t.t0))
		t.mu.Lock()
		t.spans[id-1].EndUs = end
		t.mu.Unlock()
	}
}

// stages lays the daemon's reported stage durations end to end inside the
// request span that carried them. The daemon reports durations, not clock
// readings, so their position inside the parent is nominal; their sum, and
// so the parent's self time, is exact.
func (t *tracer) stages(parent int, request string, start time.Time, stages []traceStage) {
	if t == nil {
		return
	}
	at := start
	for _, s := range stages {
		end := at.Add(time.Duration(s.Micros * float64(time.Microsecond)))
		t.add(parent, s.Name, request, at, end)
		at = end
	}
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
