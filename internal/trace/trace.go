// Package trace is a zero-dependency, context-propagated span tracer for
// the validation pipeline — the per-request causality layer the aggregate
// metrics of internal/obs cannot provide. Metrics say an audit was slow;
// a trace says WHICH group, shard, or WAL fsync made one specific request
// slow.
//
// The design follows internal/obs: no third-party imports, nil-safe
// everywhere, and zero allocations on the uninstrumented path. A request
// is traced only when a root span was started for it (Tracer.Root); every
// layer below calls Start(ctx, name), which is a single context lookup
// returning a nil span when the request is untraced — all Span methods
// are no-ops on nil, so untraced requests pay one pointer compare per
// instrumentation site and allocate nothing.
//
// Completed traces are tail-sampled: the decision to keep a trace is made
// when its root span ends, with the whole span tree in hand. Every error
// trace, plus any trace whose root latency meets the policy's slow
// threshold, is retained in full in a bounded lock-sharded ring buffer;
// the rest are counted and dropped. Retained traces are served by the
// /debug/traces handlers (http.go) and export to Chrome Trace Event JSON
// (chrome.go) that loads directly in Perfetto or chrome://tracing.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerTrace bounds one trace's memory: spans started beyond the
// cap are counted in TraceRecord.Truncated and not recorded. 4096 covers
// a full audit fan-out (groups × shards) with room to spare.
const maxSpansPerTrace = 4096

// Attr is one key-value span annotation. Values are strings; SetInt
// formats integers at record time (only on traced requests).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one finished span as stored in a retained trace. IDs are
// trace-local (the root span is always ID 1, parent 0).
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start is wall-clock nanoseconds since the Unix epoch; Duration is
	// the span's length in nanoseconds.
	Start    int64  `json:"start_unix_ns"`
	Duration int64  `json:"duration_ns"`
	Attrs    []Attr `json:"attrs,omitempty"`
	Error    string `json:"error,omitempty"`
}

// TraceRecord is one completed, retained trace: the root's identity plus
// every recorded span in end order (the root is always last).
type TraceRecord struct {
	ID       string `json:"trace_id"`
	Name     string `json:"name"`
	Start    int64  `json:"start_unix_ns"`
	Duration int64  `json:"duration_ns"`
	Error    bool   `json:"error"`
	// Remote marks a trace whose ID was extracted from an upstream
	// traceparent header rather than minted here: this record is one
	// process's fragment of a distributed trace, and RemoteParent is the
	// upstream span (hex) the local root logically hangs under.
	Remote       bool         `json:"remote,omitempty"`
	RemoteParent string       `json:"remote_parent,omitempty"`
	Spans        []SpanRecord `json:"spans"`
	// Truncated counts spans dropped by the per-trace cap (0 normally).
	Truncated int `json:"truncated_spans,omitempty"`
}

// Policy is the tail-sampling rule applied when a root span ends.
type Policy struct {
	// ErrorsOnly retains only traces whose span tree recorded an error.
	ErrorsOnly bool
	// Slow retains any trace whose root duration is >= Slow (0 retains
	// everything). Ignored when ErrorsOnly is set; error traces are
	// always retained.
	Slow time.Duration
}

// ParsePolicy parses a -trace-sample flag value:
//
//	off          tracing disabled (callers should not construct a Tracer)
//	all          retain every trace (equivalent to slow=0)
//	error        retain only error traces
//	slow=<dur>   retain error traces plus traces at least <dur> long
//
// The boolean reports whether tracing is enabled at all.
func ParsePolicy(s string) (Policy, bool, error) {
	switch {
	case s == "off":
		return Policy{}, false, nil
	case s == "all":
		return Policy{}, true, nil
	case s == "error":
		return Policy{ErrorsOnly: true}, true, nil
	case strings.HasPrefix(s, "slow="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "slow="))
		if err != nil || d < 0 {
			// "slow=0" must parse: ParseDuration accepts a bare "0".
			return Policy{}, false, fmt.Errorf("trace: bad sample policy %q (want slow=<duration>)", s)
		}
		return Policy{Slow: d}, true, nil
	default:
		return Policy{}, false, fmt.Errorf("trace: unknown sample policy %q (want off, all, error, or slow=<duration>)", s)
	}
}

// Options configure a Tracer. The zero value retains every trace in a
// 256-trace ring.
type Options struct {
	// Capacity is the total number of retained traces the ring holds
	// before evicting the oldest. Default 256.
	Capacity int
	// Policy is the tail-sampling rule.
	Policy Policy
}

// Tracer mints trace and span IDs, owns the retained-trace ring, and
// applies the tail-sampling policy. All methods are safe for concurrent
// use and nil-safe: a nil *Tracer starts no spans, so instrumented code
// runs uninstrumented without branches beyond a nil check.
type Tracer struct {
	policy Policy
	seed   uint64
	ctr    atomic.Uint64

	shards [ringShards]ringShard

	sampled atomic.Int64
	dropped atomic.Int64
}

// New builds a Tracer with the given options.
func New(o Options) *Tracer {
	if o.Capacity <= 0 {
		o.Capacity = 256
	}
	per := (o.Capacity + ringShards - 1) / ringShards
	t := &Tracer{policy: o.Policy, seed: uint64(time.Now().UnixNano()) | 1}
	for i := range t.shards {
		t.shards[i].buf = make([]*TraceRecord, per)
	}
	return t
}

// mintTraceID derives a well-mixed 64-bit trace ID from the creation-time
// seed and an atomic counter (splitmix64), so IDs are unique within a
// process and do not collide trivially across restarts.
func (t *Tracer) mintTraceID() uint64 {
	z := t.seed + t.ctr.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Root starts a new trace with a root span. On a nil Tracer it returns
// ctx unchanged and a nil span. The returned context carries the span;
// layers below pick it up with Start.
func (t *Tracer) Root(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	b := &builder{t: t, id: t.mintTraceID(), start: time.Now()}
	b.nextSpan = 1
	s := &Span{b: b, id: 1, name: name, start: b.start}
	M.SpansStarted.Inc()
	return context.WithValue(ctx, spanKey{}, s), s
}

// RootRemote starts a root span that continues an upstream trace: the
// trace ID comes from the extracted traceparent instead of being minted
// locally, so the fragments retained on both sides of the wire share
// one ID and can be merged into a single cross-process document. The
// root records remote=true and the upstream span ID (the parent link
// lives in another process's ring, so it is an attribute, not a Parent
// field — every span's Parent still resolves locally). A zero remote
// trace ID falls back to a locally minted root.
func (t *Tracer) RootRemote(ctx context.Context, name string, rp RemoteParent) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if rp.TraceID == 0 {
		return t.Root(ctx, name)
	}
	b := &builder{t: t, id: rp.TraceID, start: time.Now(), remote: true, remoteParent: rp.SpanID}
	b.nextSpan = 1
	s := &Span{b: b, id: 1, name: name, start: b.start}
	s.attrs = append(s.attrs,
		Attr{Key: "remote", Value: "true"},
		Attr{Key: "remote_parent", Value: formatTraceID(rp.SpanID)})
	M.SpansStarted.Inc()
	return context.WithValue(ctx, spanKey{}, s), s
}

// spanKey is the context key the active span travels under.
type spanKey struct{}

// SpanFromContext returns the active span, or nil when the request is
// untraced. The lookup allocates nothing.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// IDFromContext returns the active trace's hex ID, or "" when untraced —
// the value handlers put in error bodies and log lines.
func IDFromContext(ctx context.Context) string {
	if s := SpanFromContext(ctx); s != nil {
		return s.TraceID()
	}
	return ""
}

// Start begins a child span of the active span in ctx and returns a
// context carrying it. When ctx carries no span (the request is untraced,
// or tracing is off), it returns ctx unchanged and a nil span — the
// zero-allocation path every instrumentation site takes by default.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.b.startSpan(parent.id, name)
	if s == nil {
		return ctx, nil // per-trace span cap reached
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// Span is one live span. It is owned by the goroutine that started it:
// SetAttr/SetInt/Fail/End must not be called concurrently on the same
// span (start one span per goroutine instead — the fan-out layers do).
// All methods are no-ops on a nil receiver.
type Span struct {
	b      *builder
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
	errMsg string
	ended  bool
}

// TraceID returns the hex trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return formatTraceID(s.b.id)
}

func formatTraceID(id uint64) string {
	var buf [16]byte
	const hexdigits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		buf[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(buf[:])
}

// SetAttr annotates the span with a key-value pair. Callers paying a
// non-trivial cost to build the value should guard with `if sp != nil`
// so untraced requests skip the construction entirely.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// Retain forces the tail sampler to keep this span's trace regardless
// of policy — the hook the SLO layer uses so latency observations that
// crossed the SLO threshold always have a resolvable trace behind their
// exemplars, even under an errors-only sampling policy.
func (s *Span) Retain() {
	if s == nil {
		return
	}
	s.b.mu.Lock()
	s.b.keep = true
	s.b.mu.Unlock()
}

// Fail marks the span (and therefore the whole trace) as an error; error
// traces are always retained by the sampler. A nil err is ignored.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
	s.b.markErr()
}

// End finishes the span, recording it into its trace. Ending the root
// span finalises the trace: the tail-sampling decision runs and, when
// retained, the trace enters the ring. End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.b.record(s, time.Since(s.start))
}

// builder accumulates one trace's finished spans. Spans of a trace may
// end on different goroutines (shard fan-out), so recording takes the
// builder lock; span structs themselves stay single-owner.
type builder struct {
	t     *Tracer
	id    uint64
	start time.Time

	// remote / remoteParent carry the RootRemote provenance into the
	// finalised TraceRecord; set once at construction, never mutated.
	remote       bool
	remoteParent uint64

	mu        sync.Mutex
	nextSpan  uint64
	spans     []SpanRecord
	truncated int
	err       bool
	keep      bool
	done      bool
}

// startSpan mints a child span, or nil when the per-trace cap is hit or
// the trace already finalised (a straggler after the root ended).
func (b *builder) startSpan(parent uint64, name string) *Span {
	b.mu.Lock()
	if b.done || b.nextSpan >= maxSpansPerTrace {
		if !b.done {
			b.truncated++
		}
		b.mu.Unlock()
		return nil
	}
	b.nextSpan++
	id := b.nextSpan
	b.mu.Unlock()
	M.SpansStarted.Inc()
	return &Span{b: b, id: id, parent: parent, name: name, start: time.Now()}
}

func (b *builder) markErr() {
	b.mu.Lock()
	b.err = true
	b.mu.Unlock()
}

// record appends a finished span; the root span (ID 1) finalises the
// trace and hands it to the sampler.
func (b *builder) record(s *Span, d time.Duration) {
	b.mu.Lock()
	if b.done {
		b.mu.Unlock()
		return
	}
	rec := SpanRecord{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start.UnixNano(),
		Duration: d.Nanoseconds(),
		Attrs:    s.attrs,
		Error:    s.errMsg,
	}
	b.spans = append(b.spans, rec)
	if s.id != 1 {
		b.mu.Unlock()
		return
	}
	b.done = true
	isErr := b.err || s.errMsg != ""
	forced := b.keep
	spans := b.spans
	truncated := b.truncated
	b.mu.Unlock()

	t := b.t
	keep := isErr || forced // Retain overrides any policy
	if !t.policy.ErrorsOnly && d >= t.policy.Slow {
		keep = true
	}
	if !keep {
		t.dropped.Add(1)
		M.TracesDropped.Inc()
		return
	}
	t.sampled.Add(1)
	M.TracesSampled.Inc()
	trec := &TraceRecord{
		ID:        formatTraceID(b.id),
		Name:      s.name,
		Start:     b.start.UnixNano(),
		Duration:  d.Nanoseconds(),
		Error:     isErr,
		Remote:    b.remote,
		Spans:     spans,
		Truncated: truncated,
	}
	if b.remote {
		trec.RemoteParent = formatTraceID(b.remoteParent)
	}
	t.retain(trec)
}

// Sampled returns the number of traces retained so far (0 on nil).
func (t *Tracer) Sampled() int64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// Dropped returns the number of completed traces the sampler discarded
// (0 on nil).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}
