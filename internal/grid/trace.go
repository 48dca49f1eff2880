package grid

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer emits the grid's event trace: one JSON object per line, one
// line per state transition (job lifecycle, leases, failures,
// checkpoints, membership changes). The trace is the forensic record a
// CI failure uploads — it reconstructs which job held which workers
// when a rank died and where the retried attempt picked up.
//
// A nil *Tracer is valid and silent, so call sites never guard.
//
// Besides (or instead of) the JSONL writer, a tracer can fan events out
// to subscribed sinks — how the analysis server feeds per-run event
// streams and live metrics from the same transitions the trace records.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	seq   int64
	sinks []Sink
}

// Sink observes one sequenced event record. The map is shared across
// sinks and the writer: sinks must not mutate or retain it past the
// call (copy what they keep). Sinks run under the tracer's lock, so
// they must be fast and must not re-enter the tracer.
type Sink func(rec map[string]any)

// NewTracer writes events to w (nil w yields a silent tracer).
func NewTracer(w io.Writer) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w}
}

// NewTracerWith builds a tracer over an optional writer plus sinks —
// unlike NewTracer it is valid with a nil writer, carrying events to
// sinks only (the per-run tracers of the analysis server).
func NewTracerWith(w io.Writer, sinks ...Sink) *Tracer {
	return &Tracer{w: w, sinks: sinks}
}

// Subscribe adds a fan-out sink; every subsequent Event reaches it.
func (t *Tracer) Subscribe(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
}

// Event appends one trace line. ev is the transition kind ("job-start",
// "rank-dead", ...), job the job id ("" for fleet-level events), fields
// any additional key/values. Safe for concurrent use.
func (t *Tracer) Event(ev, job string, fields map[string]any) {
	if t == nil {
		return
	}
	rec := make(map[string]any, len(fields)+4)
	for k, v := range fields {
		rec[k] = v
	}
	rec["ev"] = ev
	if job != "" {
		rec["job"] = job
	}
	rec["t"] = time.Now().UTC().Format(time.RFC3339Nano)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	rec["seq"] = t.seq
	for _, s := range t.sinks {
		s(rec)
	}
	if t.w == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	t.w.Write(append(b, '\n'))
}
