// Replication wire protocol: the leader exposes three read-only HTTP
// endpoints a follower polls —
//
//	GET /v1/repl/wal?segment=S&offset=O&seq=Q[&max_bytes=N]
//	    → the next window of durable WAL frames past the (segment,
//	      offset, seq) watermark, as application/octet-stream: the body
//	      is the leader's segment bytes unchanged, whole frames only,
//	      each carrying its own CRC32C. Three headers frame it —
//	      Drm-Repl-Start and Drm-Repl-Next, the cursors ("S,O,Q") before
//	      and after the body, and Drm-Repl-Leader-Seq, the leader's
//	      durable seq for lag math. An empty body with Start == Next
//	      means caught up. 410 Gone when the cursor fell below the
//	      snapshot watermark (segments compacted away): re-bootstrap.
//	GET /v1/repl/snapshot
//	    → wal.BootstrapDoc: snapshot JSON + watermark segment prefix,
//	      everything a fresh follower needs to start tailing.
//	GET /v1/repl/role
//	    → RoleInfo: which role this peer plays and, for followers, how
//	      far behind it is. Routers probe this; a 404 means a peer
//	      predating the cluster subsystem, treated as a ready leader.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/drmerr"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Role names for RoleInfo.Role.
const (
	RoleLeader     = "leader"
	RoleFollower   = "follower"
	RoleRouter     = "router"
	RoleStandalone = "standalone"
)

// The WAL window's content type and framing headers.
const (
	walContentType  = "application/octet-stream"
	headerStart     = "Drm-Repl-Start"
	headerNext      = "Drm-Repl-Next"
	headerLeaderSeq = "Drm-Repl-Leader-Seq"
)

// ErrProtocolMismatch matches a WAL fetch answered in a shape this
// follower does not speak: a leader of another version, or no leader at
// all. The follower refuses the window and keeps its cursor.
var ErrProtocolMismatch = drmerr.Sentinel(drmerr.KindUnavailable,
	"cluster: leader does not speak this replication wire format")

// formatCursor renders c as a header value, "segment,offset,seq".
func formatCursor(c wal.Cursor) string {
	return fmt.Sprintf("%d,%d,%d", c.Segment, c.Offset, c.Seq)
}

// parseCursorHeader decodes a formatCursor header value.
func parseCursorHeader(h http.Header, name string) (wal.Cursor, error) {
	v := h.Get(name)
	if f := strings.Split(v, ","); len(f) == 3 {
		seg, err1 := strconv.ParseUint(f[0], 10, 64)
		off, err2 := strconv.ParseInt(f[1], 10, 64)
		seq, err3 := strconv.ParseUint(f[2], 10, 64)
		if err1 == nil && err2 == nil && err3 == nil && off >= 0 {
			return wal.Cursor{Segment: seg, Offset: off, Seq: seq}, nil
		}
	}
	return wal.Cursor{}, drmerr.New(drmerr.KindStoreCorrupt, "cluster.fetch",
		"cluster: bad %s header %q", name, v)
}

// RoleInfo is the role-probe body every cluster peer serves at
// /v1/repl/role.
type RoleInfo struct {
	// Role is one of the Role* constants.
	Role string `json:"role"`
	// Ready mirrors /v1/readyz: followers beyond their lag bound and
	// draining peers report false.
	Ready bool `json:"ready"`
	// Seq is the peer's durable WAL sequence number (0 without a WAL).
	Seq uint64 `json:"seq"`
	// LagSeqs / LagSeconds quantify a follower's distance behind its
	// leader: sequence numbers not yet applied, and wall time since the
	// last successful fetch.
	LagSeqs    int64   `json:"lag_seqs,omitempty"`
	LagSeconds float64 `json:"lag_seconds,omitempty"`
	// Leader is the follower's leader URL (empty on other roles).
	Leader string `json:"leader,omitempty"`
}

// errBody matches the server's structured error shape: a message, the
// drmerr taxonomy kind when the error carries one, and the request's
// trace ID when tracing is on — the handle a caller quotes against
// /debug/traces/{id} (or /v1/cluster/traces/{id} for routed requests).
type errBody struct {
	Error   string `json:"error"`
	Kind    string `json:"kind,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps err to its HTTP status — 410 Gone for wal.ErrCompacted
// (the re-bootstrap signal), the drmerr taxonomy mapping otherwise —
// with a structured body stamped with ctx's trace ID.
func writeErr(ctx context.Context, w http.ResponseWriter, err error) {
	status := drmerr.HTTPStatus(err)
	if errors.Is(err, wal.ErrCompacted) {
		status = http.StatusGone
	}
	b := errBody{Error: err.Error(), TraceID: trace.IDFromContext(ctx)}
	if k := drmerr.KindOf(err); k != drmerr.KindUnknown {
		b.Kind = k.String()
	}
	writeJSON(w, status, b)
}

// decodeBody decodes a JSON response body into v and closes it.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// parseCursor decodes the watermark query parameters of a WAL fetch.
func parseCursor(r *http.Request) (wal.Cursor, error) {
	q := r.URL.Query()
	seg, err := strconv.ParseUint(q.Get("segment"), 10, 64)
	if err != nil {
		return wal.Cursor{}, drmerr.New(drmerr.KindInvalidInput, "cluster.ship",
			"cluster: bad segment %q", q.Get("segment"))
	}
	off, err := strconv.ParseInt(q.Get("offset"), 10, 64)
	if err != nil {
		return wal.Cursor{}, drmerr.New(drmerr.KindInvalidInput, "cluster.ship",
			"cluster: bad offset %q", q.Get("offset"))
	}
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err != nil {
		return wal.Cursor{}, drmerr.New(drmerr.KindInvalidInput, "cluster.ship",
			"cluster: bad seq %q", q.Get("seq"))
	}
	return wal.Cursor{Segment: seg, Offset: off, Seq: seq}, nil
}
