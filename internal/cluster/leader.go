// Leader side of log shipping: thin HTTP handlers over the WAL's ship
// API. ReadFrames only ever serves fsync-covered whole frames, so a
// torn leader tail is invisible to followers by construction — the
// acked ⊆ shipped ⊆ durable invariant costs nothing here.

package cluster

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/trace"
	"repro/internal/wal"
)

// DefaultMaxBytes is the per-fetch frame window when the client does
// not ask for one: large enough to amortise round-trips, small enough
// that a catch-up follower streams rather than buffers the whole log.
const DefaultMaxBytes = 1 << 20

// Leader serves a WAL store's replication endpoints.
type Leader struct {
	store *wal.Store
	// maxBytes caps the frame window of one fetch regardless of what the
	// client requests.
	maxBytes int
}

// NewLeader wraps store for serving; maxBytes <= 0 means
// DefaultMaxBytes.
func NewLeader(store *wal.Store, maxBytes int) *Leader {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Leader{store: store, maxBytes: maxBytes}
}

// Mount registers the replication routes on mux. The role route is NOT
// mounted — the server composes RoleInfo itself (it knows about
// draining and readiness) — so Mount stays usable in tests and tools.
func (l *Leader) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/repl/wal", l.HandleWAL)
	mux.HandleFunc("GET /v1/repl/snapshot", l.HandleSnapshot)
}

// HandleWAL serves one frame window past the requested watermark: the
// segment bytes as they are, framed by the cursor headers.
func (l *Leader) HandleWAL(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx, sp := trace.Start(r.Context(), "repl.ship")
	cur, err := parseCursor(r)
	if err != nil {
		if sp != nil {
			sp.Fail(err)
			sp.End()
		}
		writeErr(ctx, w, err)
		return
	}
	maxBytes := l.maxBytes
	if s := r.URL.Query().Get("max_bytes"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 && n < maxBytes {
			maxBytes = n
		}
	}
	batch, err := l.store.ReadFrames(cur, maxBytes)
	if sp != nil {
		sp.SetAttr("cursor", cur.String())
		sp.SetInt("records", int64(batch.Records))
		sp.SetInt("bytes", int64(len(batch.Data)))
		sp.Fail(err)
		sp.End()
	}
	if err != nil {
		writeErr(ctx, w, err)
		return
	}
	M.ShippedFrames.Add(int64(batch.Records))
	M.ShippedBytes.Add(int64(len(batch.Data)))
	if M.ShipSeconds != nil {
		M.ShipSeconds.ObserveExemplar(time.Since(start).Seconds(), trace.IDFromContext(ctx))
	}
	h := w.Header()
	h.Set("Content-Type", walContentType)
	h.Set("Content-Length", strconv.Itoa(len(batch.Data)))
	h.Set(headerStart, formatCursor(batch.Start))
	h.Set(headerNext, formatCursor(batch.Next))
	h.Set(headerLeaderSeq, strconv.FormatUint(l.store.SyncedSeq(), 10))
	w.WriteHeader(http.StatusOK)
	w.Write(batch.Data)
}

// HandleSnapshot serves the bootstrap document a fresh (or compacted-
// past) follower installs before tailing.
func (l *Leader) HandleSnapshot(w http.ResponseWriter, r *http.Request) {
	ctx, sp := trace.Start(r.Context(), "repl.bootstrap")
	doc, err := l.store.Bootstrap()
	if sp != nil {
		sp.Fail(err)
		sp.End()
	}
	if err != nil {
		writeErr(ctx, w, err)
		return
	}
	M.BootstrapsServed.Inc()
	writeJSON(w, http.StatusOK, doc)
}

// Role composes the leader's role-probe body.
func (l *Leader) Role(ready bool) RoleInfo {
	return RoleInfo{Role: RoleLeader, Ready: ready, Seq: l.store.SyncedSeq()}
}
