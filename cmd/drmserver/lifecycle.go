// Lifecycle endpoints: the typed ledger's revoke / transfer / expire
// operations over HTTP, plus the background expiry sweeper. Handlers
// mirror handleIssue — resolve the rectangle, run the engine operation
// (WAL-durable, cache-mirrored, serialised by the distributor), map
// taxonomy errors to their HTTP statuses (409 ledger_unsound for a
// debit the store refused, 422 instance-invalid, ...).

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/license"
)

// lifecycleRequest is the shared revoke/transfer body: the rectangle
// identifying the belongs-to set, and how many permission counts to move.
type lifecycleRequest struct {
	Values []license.ValueDoc `json:"values"`
	Count  int64              `json:"count"`
}

// lifecycleResponse echoes the operation, the resolved belongs-to set
// (one-based license numbers), and the count moved.
type lifecycleResponse struct {
	Op        string `json:"op"`
	BelongsTo []int  `json:"belongs_to"`
	Count     int64  `json:"count"`
}

// decodeLifecycle reads and validates the shared revoke/transfer body,
// returning the resolved rectangle. A false return means the error has
// been written.
func (s corpusAPI) decodeLifecycle(w http.ResponseWriter, r *http.Request) (lifecycleRequest, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxIssueBody)
	var req lifecycleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			clientError(r.Context(), w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return req, false
		}
		clientError(r.Context(), w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return req, false
	}
	return req, true
}

// writeLifecycle answers a decided lifecycle operation the same way
// handleIssue does: taxonomy errors carry their own status (409
// violation / ledger_unsound, 422 instance-invalid, 400 invalid input,
// 499 cancelled), anything else is a 400.
func writeLifecycle(ctx context.Context, w http.ResponseWriter, op string, set bitset.Mask, count int64, err error) {
	switch {
	case err == nil:
		var belongs []int
		set.ForEach(func(j int) bool { belongs = append(belongs, j+1); return true })
		writeJSON(w, http.StatusOK, lifecycleResponse{Op: op, BelongsTo: belongs, Count: count})
	case drmerr.KindOf(err) != drmerr.KindUnknown:
		writeError(ctx, w, err)
	default:
		clientError(ctx, w, http.StatusBadRequest, err.Error())
	}
}

// handleRevoke takes counts back out of circulation. The store refuses
// (409 ledger_unsound) a revoke exceeding the set's net outstanding
// count; an accepted revoke frees headroom immediately in online mode.
func (s corpusAPI) handleRevoke(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeLifecycle(w, r)
	if !ok {
		return
	}
	rect, err := license.BuildRect(s.corpus.Schema(), req.Values)
	if err != nil {
		clientError(r.Context(), w, http.StatusBadRequest, err.Error())
		return
	}
	set, err := s.dist.RevokeContext(r.Context(), rect, req.Count)
	writeLifecycle(r.Context(), w, "revoke", set, req.Count, err)
}

// handleTransfer re-homes counts without changing the aggregate picture.
// Online mode enforces the outstanding bound and the cumulative
// transfer cap (-transfer-cap), both answering 409.
func (s corpusAPI) handleTransfer(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeLifecycle(w, r)
	if !ok {
		return
	}
	rect, err := license.BuildRect(s.corpus.Schema(), req.Values)
	if err != nil {
		clientError(r.Context(), w, http.StatusBadRequest, err.Error())
		return
	}
	set, err := s.dist.TransferContext(r.Context(), rect, req.Count)
	writeLifecycle(r.Context(), w, "transfer", set, req.Count, err)
}

// expireRequest optionally overrides the sweep's notion of now (Unix
// seconds) — deterministic expiry for tests and operators replaying a
// schedule. Empty bodies mean "now".
type expireRequest struct {
	Now int64 `json:"now"`
}

// handleExpire runs one expiry sweep on demand: every TTL bucket due at
// or before now is debited with an expire record. The background
// sweeper (-expire-every) runs the same body on a ticker.
func (s corpusAPI) handleExpire(w http.ResponseWriter, r *http.Request) {
	var req expireRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIssueBody)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		clientError(r.Context(), w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	now := time.Now()
	if req.Now > 0 {
		now = time.Unix(req.Now, 0)
	}
	res, err := s.dist.ExpireSweep(r.Context(), now)
	if err != nil {
		writeError(r.Context(), w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// startSweeper runs sweep on a ticker until the returned stop function
// is called; stop blocks until an in-flight sweep finishes, so deferred
// log closes never race an appending sweep.
func startSweeper(interval time.Duration, sweep func(context.Context)) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				sweep(ctx)
			}
		}
	}()
	return func() { cancel(); <-done }
}

// sweepExpired is the single-corpus sweeper tick. It skips while the
// distributor is a read-only replica: the leader sweeps, and its expire
// records ship. Promotion clears the gate, and the next tick sweeps.
func (s *server) sweepExpired(ctx context.Context) {
	dist := s.currentAPI().dist
	if dist.ReadOnly() {
		return
	}
	res, err := dist.ExpireSweep(ctx, time.Now())
	if err != nil && !drmerr.IsCancellation(err) {
		logger.Error("expiry sweep failed", "err", err)
		return
	}
	if res.Records > 0 {
		logger.Info("expiry sweep", "records", res.Records, "counts", res.Counts)
	}
}

// sweepExpired is the catalog-mode sweeper tick: one sweep per entry.
func (s *catalogServer) sweepExpired(ctx context.Context) {
	for _, e := range s.cat.Entries() {
		res, err := e.Dist.ExpireSweep(ctx, time.Now())
		if err != nil {
			if !drmerr.IsCancellation(err) {
				logger.Error("expiry sweep failed", "content", e.Content,
					"permission", string(e.Permission), "err", err)
			}
			return
		}
		if res.Records > 0 {
			logger.Info("expiry sweep", "content", e.Content,
				"permission", string(e.Permission), "records", res.Records, "counts", res.Counts)
		}
	}
}
