package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one analysis
// share Run; Parent is the ID of the span that caused this one (0 for a
// root).
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  time.Time          `json:"start"`
	End    time.Time          `json:"end"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// valid and records nothing, so untraced runs pass nil and call sites
// never guard.
type recorder struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

func newRecorder() *recorder { return &recorder{} }

// add stores a finished span and returns its ID (0 on a nil recorder).
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	s.ID = r.next
	r.spans = append(r.spans, s)
	return s.ID
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its children cover. Children may overlap
// one another (concurrent grid jobs) and may stick out of the parent;
// only their union clipped to the parent counts.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(lo, hi time.Time, spans []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := later(s.Start, lo), earlier(s.End, hi)
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			if v.b.After(end) {
				total += v.b.Sub(end)
				end = v.b
			}
			continue
		}
		total += v.b.Sub(v.a)
		end = v.b
	}
	return total
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func earlier(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// writeSpans writes spans as JSONL, each with its self time in seconds.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	self := selfTimes(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			DurS  float64 `json:"dur_s"`
			SelfS float64 `json:"self_s"`
		}{s, s.dur().Seconds(), self[s.ID].Seconds()}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
