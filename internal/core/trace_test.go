package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/drmerr"
	"repro/internal/trace"
)

// tracedAudit runs an Example 1 audit under a live tracer root with the
// given (possibly cancelled) context and returns the retained trace.
func tracedAudit(t *testing.T, ctx context.Context) (*trace.TraceRecord, error) {
	t.Helper()
	aud := example1Auditor(t) // construction under a healthy context
	tr := trace.New(trace.Options{Capacity: 4})
	ctx, root := tr.Root(ctx, "test.audit")
	_, err := aud.AuditContext(ctx)
	root.End()
	rec := tr.Get(root.TraceID())
	if rec == nil {
		t.Fatal("audit trace not retained")
	}
	return rec, err
}

// assertWellFormed checks the structural invariants every retained trace
// must satisfy, complete or partial: unique span IDs, parents that
// resolve in-trace, exactly one root, and ended (non-negative duration)
// spans throughout.
func assertWellFormed(t *testing.T, rec *trace.TraceRecord) {
	t.Helper()
	seen := map[uint64]bool{}
	roots := 0
	for _, s := range rec.Spans {
		if seen[s.ID] {
			t.Errorf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
		if s.Duration < 0 {
			t.Errorf("span %d (%s) has negative duration %d", s.ID, s.Name, s.Duration)
		}
	}
	for _, s := range rec.Spans {
		if s.Parent == 0 {
			roots++
			continue
		}
		if !seen[s.Parent] {
			t.Errorf("span %d (%s): parent %d not in trace", s.ID, s.Name, s.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want 1", roots)
	}
}

func spanByName(rec *trace.TraceRecord, name string) (trace.SpanRecord, bool) {
	for _, s := range rec.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return trace.SpanRecord{}, false
}

// TestAuditTraceComplete pins the span tree of a clean full audit:
// flatten and validate phases under the root, one core.group span per
// group, shard spans under those.
func TestAuditTraceComplete(t *testing.T) {
	rec, err := tracedAudit(t, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertWellFormed(t, rec)
	if rec.Error {
		t.Error("clean audit trace marked as error")
	}
	for _, want := range []string{"core.flatten", "core.validate", "core.group", "vtree.shard"} {
		if _, ok := spanByName(rec, want); !ok {
			t.Errorf("span %q missing from audit trace", want)
		}
	}
	groups := 0
	for _, s := range rec.Spans {
		if s.Name == "core.group" {
			groups++
		}
	}
	if groups != 2 {
		t.Errorf("core.group spans = %d, want 2 (Example 1 has two groups)", groups)
	}
}

// TestAuditTraceCancelledPartial is the satellite acceptance test: a
// deadline-cut audit must still produce a structurally well-formed
// (partial) trace — every started span ended, parents resolved, the
// validate phase marked failed — so the operator can see exactly where
// the deadline landed.
func TestAuditTraceCancelledPartial(t *testing.T) {
	rec, err := tracedAudit(t, cancelledCtx())
	if !errors.Is(err, drmerr.ErrAuditIncomplete) {
		t.Fatalf("err = %v, want ErrAuditIncomplete", err)
	}
	assertWellFormed(t, rec)
	vsp, ok := spanByName(rec, "core.validate")
	if !ok {
		t.Fatal("partial trace has no core.validate span")
	}
	if vsp.Error == "" {
		t.Error("cut validate span carries no error")
	}
	// The root ends after the cut, so it is recorded last and the record
	// is complete despite the cancellation.
	if last := rec.Spans[len(rec.Spans)-1]; last.ID != 1 {
		t.Errorf("last recorded span is %d (%s), want the root", last.ID, last.Name)
	}
}
