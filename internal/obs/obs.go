// Package obs is the federation's dependency-free observability
// substrate (DESIGN.md §4.9): spans and per-trace timelines for the
// job→plan→shard→lease→run→complete lifecycle, fixed-bucket latency
// histograms shaped for Prometheus exposition, and an EWMA for
// per-worker throughput gauges. Everything here is plain stdlib and
// safe for concurrent use; the sweep coordinator, the HTTP layer and
// the wire codec all build on it without importing each other.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed event on a trace. StartNS/EndNS are absolute unix
// nanoseconds; an instantaneous event carries StartNS == EndNS. Worker-
// side spans (names prefixed "w:") are stamped with the reporting
// worker's clock — the renderer orders by start time but never assumes
// cross-machine clocks agree to better than NTP.
type Span struct {
	Name    string `json:"name"`
	Ref     string `json:"ref,omitempty"`    // shard id the event concerns
	Worker  string `json:"worker,omitempty"` // worker id, for lease/run/w:* spans
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Detail  string `json:"detail,omitempty"`
}

// Duration is the span's extent (zero for instantaneous events).
func (s Span) Duration() time.Duration {
	if s.EndNS <= s.StartNS {
		return 0
	}
	return time.Duration(s.EndNS - s.StartNS)
}

// Timeline is one trace's assembled span list, ordered by start time.
type Timeline struct {
	TraceID string `json:"trace_id"`
	Label   string `json:"label,omitempty"`   // e.g. the sweep id
	Dropped int    `json:"dropped,omitempty"` // spans lost to the ring bound
	Spans   []Span `json:"spans"`
}

// Render formats the timeline as human-readable text: one line per
// span with its offset from the trace start and its duration.
func (t Timeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s", t.TraceID)
	if t.Label != "" {
		fmt.Fprintf(&b, " (%s)", t.Label)
	}
	fmt.Fprintf(&b, " — %d spans", len(t.Spans))
	if t.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped)", t.Dropped)
	}
	b.WriteByte('\n')
	if len(t.Spans) == 0 {
		return b.String()
	}
	base := t.Spans[0].StartNS
	for _, s := range t.Spans {
		off := time.Duration(s.StartNS - base)
		fmt.Fprintf(&b, "%12s %10s  %-10s", fmtDur(off), fmtDur(s.Duration()), s.Name)
		if s.Ref != "" {
			fmt.Fprintf(&b, " %s", s.Ref)
		}
		if s.Worker != "" {
			fmt.Fprintf(&b, " @%s", s.Worker)
		}
		if s.Detail != "" {
			fmt.Fprintf(&b, "  %s", s.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "·"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// Recorder defaults; a trace that outgrows MaxSpans keeps the newest
// spans (the early submit/plan spans are re-derivable from the count
// in Dropped being nonzero — an operator signal, not silent loss).
const (
	defaultMaxSpans  = 512
	defaultMaxTraces = 1024
)

// Recorder holds bounded per-trace span rings. The zero value is not
// usable; call NewRecorder.
type Recorder struct {
	mu        sync.Mutex
	maxSpans  int
	maxTraces int
	traces    map[string]*traceBuf
	order     []string // insertion order, oldest first, for eviction
}

type traceBuf struct {
	label   string
	spans   []Span
	head    int // next overwrite slot once the ring is full
	dropped int
}

// NewRecorder builds a recorder with the default bounds (512 spans per
// trace, 1024 retained traces, oldest evicted first).
func NewRecorder() *Recorder {
	return &Recorder{
		maxSpans:  defaultMaxSpans,
		maxTraces: defaultMaxTraces,
		traces:    make(map[string]*traceBuf),
	}
}

// SetLimits overrides the retention bounds (values <= 0 keep the
// current setting). For tests and memory-constrained embedders.
func (r *Recorder) SetLimits(maxSpans, maxTraces int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if maxSpans > 0 {
		r.maxSpans = maxSpans
	}
	if maxTraces > 0 {
		r.maxTraces = maxTraces
	}
}

// Begin registers a trace and its label. Recording to an unregistered
// trace also works (label stays empty); Begin on an existing trace
// just refreshes the label.
func (r *Recorder) Begin(traceID, label string) {
	if traceID == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bufLocked(traceID).label = label
}

// Record appends one span to a trace's ring.
func (r *Recorder) Record(traceID string, s Span) {
	if traceID == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.bufLocked(traceID)
	if len(b.spans) < r.maxSpans {
		b.spans = append(b.spans, s)
		return
	}
	b.spans[b.head] = s
	b.head = (b.head + 1) % len(b.spans)
	b.dropped++
}

func (r *Recorder) bufLocked(traceID string) *traceBuf {
	if b, ok := r.traces[traceID]; ok {
		return b
	}
	for len(r.order) >= r.maxTraces {
		delete(r.traces, r.order[0])
		r.order = r.order[1:]
	}
	b := &traceBuf{}
	r.traces[traceID] = b
	r.order = append(r.order, traceID)
	return b
}

// Timeline assembles a trace's spans sorted by start time (stable, so
// same-instant spans keep recording order). The second return is false
// for an unknown trace.
func (r *Recorder) Timeline(traceID string) (Timeline, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.traces[traceID]
	if !ok {
		return Timeline{}, false
	}
	return r.timelineLocked(traceID, b), true
}

func (r *Recorder) timelineLocked(id string, b *traceBuf) Timeline {
	t := Timeline{TraceID: id, Label: b.label, Dropped: b.dropped}
	t.Spans = append(t.Spans, b.spans[b.head:]...)
	t.Spans = append(t.Spans, b.spans[:b.head]...)
	sort.SliceStable(t.Spans, func(a, c int) bool { return t.Spans[a].StartNS < t.Spans[c].StartNS })
	return t
}

// Dump snapshots every retained trace in insertion order — the
// coordinator writes this into each compacted journal so timelines
// survive crash-resume.
func (r *Recorder) Dump() []Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Timeline, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.timelineLocked(id, r.traces[id]))
	}
	return out
}

// Load restores a dumped timeline (replay/recovery). Spans append
// after any already recorded under the same trace id.
func (r *Recorder) Load(t Timeline) {
	if t.TraceID == "" {
		return
	}
	r.mu.Lock()
	b := r.bufLocked(t.TraceID)
	if t.Label != "" {
		b.label = t.Label
	}
	b.dropped += t.Dropped
	r.mu.Unlock()
	for _, s := range t.Spans {
		r.Record(t.TraceID, s)
	}
}

// Len reports the number of retained traces.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.traces)
}

// --- trace identity -------------------------------------------------------

var traceSeq atomic.Uint64

// NewTraceID mints a random 16-hex-digit trace id (falling back to a
// process-local counter if the system entropy source fails).
func NewTraceID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return fmt.Sprintf("tr-fallback-%d", traceSeq.Add(1))
	}
	return hex.EncodeToString(buf[:])
}

// SanitizeTraceID keeps a caller-supplied id usable as a path segment
// and label value: only [A-Za-z0-9_-], at most 64 characters. Returns
// "" when nothing valid remains (callers then mint a fresh id).
func SanitizeTraceID(s string) string {
	var b strings.Builder
	for _, c := range s {
		if b.Len() >= 64 {
			break
		}
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		}
	}
	return b.String()
}

// FromTraceparent extracts the trace-id field of a W3C traceparent
// header ("00-<32 hex trace-id>-<16 hex span-id>-<flags>"); "" if the
// header does not parse.
func FromTraceparent(h string) string {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 3 || len(parts[1]) != 32 {
		return ""
	}
	for _, c := range parts[1] {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return ""
		}
	}
	return strings.ToLower(parts[1])
}
