// Follower side of log shipping: a fetch loop that tails the leader's
// WAL from the local durable watermark and hands each window to an apply
// callback, which ingests it byte for byte (wal.IngestFrames) and folds
// the decoded records as one step, before the new cursor is published.
// So the serving layer keeps its derived state — stats and the headroom
// admission cache — warm without replaying the log, and no reader sees
// a window landed but not folded. A follower whose cursor fell below
// the leader's snapshot watermark (410 Gone) re-bootstraps: it fetches
// the leader's snapshot + watermark prefix and asks the server to
// rebuild its store from it.
//
// Promotion drains the loop — the in-flight fetch finishes, one final
// best-effort catch-up runs — and then the store is simply appendable:
// the mirror is byte-identical to the leader's durable prefix, so the
// promoted follower continues the same log.

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/trace"
	"repro/internal/wal"
)

// FollowerConfig wires a follower to its leader and its serving layer.
type FollowerConfig struct {
	// Leader is the leader's base URL (e.g. "http://10.0.0.1:8080").
	Leader string
	// Client is the HTTP client for fetches (http.DefaultClient when nil).
	Client *http.Client
	// Store is the local WAL mirror, already opened (recovery replayed).
	Store *wal.Store
	// MaxBytes caps one fetch window (DefaultMaxBytes when <= 0).
	MaxBytes int
	// Interval paces the fetch loop (time.Second when <= 0).
	Interval time.Duration
	// MaxLagSeqs / MaxLagAge bound the lag beyond which ReadyErr reports
	// the follower unready (0 disables each bound).
	MaxLagSeqs int64
	MaxLagAge  time.Duration
	// Apply lands a window and folds it into derived state as one step:
	// it calls land, which checks the window and ingests it into Store,
	// folds the decoded records land returns, and returns land's result
	// (engine.Distributor.ApplyReplicated on the server, which runs both
	// under the distributor's mutex). Nil lands windows alone.
	Apply func(ctx context.Context, land func() ([]logstore.Record, error)) ([]logstore.Record, error)
	// Reset rebuilds the local mirror from a leader bootstrap document
	// after compaction outran the cursor: close the old store, reinstall
	// (see ReinstallStore), rebuild derived state, return the new store.
	// Nil followers fail the fetch instead of re-bootstrapping.
	Reset func(ctx context.Context, doc *wal.BootstrapDoc) (*wal.Store, error)
	// OnError observes fetch-loop errors (nil ignores them).
	OnError func(err error)
	// Tracer, when set, roots a "repl.fetch" span around each fetch
	// round-trip and injects it into the leader calls, so the leader's
	// repl.ship/repl.bootstrap spans join the follower's trace ID.
	Tracer *trace.Tracer
}

// Lag is a follower's distance behind its leader.
type Lag struct {
	// Seqs is leader durable seq minus local durable seq (>= 0).
	Seqs int64 `json:"seqs"`
	// Seconds is the wall time since the last successful fetch.
	Seconds float64 `json:"seconds"`
	// LeaderSeq / LocalSeq are the raw sequence numbers behind Seqs.
	LeaderSeq uint64 `json:"leader_seq"`
	LocalSeq  uint64 `json:"local_seq"`
}

// Follower tails one leader. Safe for concurrent use: fetches are
// serialised, lag reads are lock-free.
type Follower struct {
	cfg FollowerConfig

	fetchMu sync.Mutex // serialises FetchOnce/Sync/rebootstrap

	mu     sync.RWMutex
	store  *wal.Store
	cursor wal.Cursor

	leaderSeq atomic.Uint64
	lastFetch atomic.Int64 // UnixNano of the last successful fetch
	promoted  atomic.Bool

	stop chan struct{}
	done chan struct{}
}

// NewFollower builds a follower positioned at its store's durable
// watermark.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Store == nil {
		return nil, drmerr.New(drmerr.KindInvalidInput, "cluster.follower",
			"cluster: follower needs an open WAL store")
	}
	if cfg.Leader == "" {
		return nil, drmerr.New(drmerr.KindInvalidInput, "cluster.follower",
			"cluster: follower needs a leader URL")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	// A leader serves at least one whole frame whatever the window asks.
	cfg.MaxBytes = max(cfg.MaxBytes, wal.MaxFrameSize)
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	f := &Follower{
		cfg:    cfg,
		store:  cfg.Store,
		cursor: cfg.Store.DurableCursor(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	f.lastFetch.Store(time.Now().UnixNano())
	f.leaderSeq.Store(f.cursor.Seq)
	return f, nil
}

// Store returns the current local mirror (it changes across a
// re-bootstrap).
func (f *Follower) Store() *wal.Store {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.store
}

// Lag returns the current lag estimate.
func (f *Follower) Lag() Lag {
	f.mu.RLock()
	local, leader := f.cursor.Seq, f.leaderSeq.Load()
	f.mu.RUnlock()
	var seqs int64
	if leader > local {
		seqs = int64(leader - local)
	}
	return Lag{
		Seqs:      seqs,
		Seconds:   time.Since(time.Unix(0, f.lastFetch.Load())).Seconds(),
		LeaderSeq: leader,
		LocalSeq:  local,
	}
}

// ReadyErr reports nil while the follower is within its lag bounds, and
// a KindReplicaLag error once either configured bound is exceeded.
func (f *Follower) ReadyErr() error {
	lag := f.Lag()
	if f.cfg.MaxLagSeqs > 0 && lag.Seqs > f.cfg.MaxLagSeqs {
		return drmerr.New(drmerr.KindReplicaLag, "cluster.follower",
			"cluster: replica %d seqs behind leader (bound %d)", lag.Seqs, f.cfg.MaxLagSeqs)
	}
	if f.cfg.MaxLagAge > 0 && lag.Seconds > f.cfg.MaxLagAge.Seconds() {
		return drmerr.New(drmerr.KindReplicaLag, "cluster.follower",
			"cluster: last successful fetch %.1fs ago (bound %s)", lag.Seconds, f.cfg.MaxLagAge)
	}
	return nil
}

// Role composes the follower's role-probe body.
func (f *Follower) Role() RoleInfo {
	if f.promoted.Load() {
		return RoleInfo{Role: RoleLeader, Ready: true, Seq: f.Store().SyncedSeq()}
	}
	lag := f.Lag()
	return RoleInfo{
		Role:       RoleFollower,
		Ready:      f.ReadyErr() == nil,
		Seq:        lag.LocalSeq,
		LagSeqs:    lag.Seqs,
		LagSeconds: lag.Seconds,
		Leader:     f.cfg.Leader,
	}
}

// Promoted reports whether Promote has run.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// FetchOnce runs one fetch round-trip: at most one window of frames is
// ingested and applied. It returns the number of records ingested; 0
// with a nil error means caught up. With a Tracer configured, the
// round-trip runs under a "repl.fetch" root span whose context getJSON
// injects into the leader calls — the root lives here, not in
// fetchLocked, so a 410-triggered re-bootstrap plus the retry fetch
// stay one trace.
func (f *Follower) FetchOnce(ctx context.Context) (int, error) {
	f.fetchMu.Lock()
	defer f.fetchMu.Unlock()
	ctx, sp := f.cfg.Tracer.Root(ctx, "repl.fetch")
	n, err := f.fetchLocked(ctx)
	if sp != nil {
		sp.SetInt("records", int64(n))
		sp.Fail(err)
		sp.End()
	}
	return n, err
}

func (f *Follower) fetchLocked(ctx context.Context) (int, error) {
	f.mu.RLock()
	store, cur := f.store, f.cursor
	f.mu.RUnlock()

	u := fmt.Sprintf("%s/v1/repl/wal?segment=%d&offset=%d&seq=%d&max_bytes=%d",
		f.cfg.Leader, cur.Segment, cur.Offset, cur.Seq, f.cfg.MaxBytes)
	M.Fetches.Inc()
	start := time.Now()
	w, status, err := f.getWindow(ctx, u)
	if err == nil && status == http.StatusGone {
		// The leader compacted past our cursor: the tail we need no
		// longer exists as segments. Rebuild from its snapshot, then
		// fetch again so progress (and the leader seq) stay current.
		if err := f.rebootstrapLocked(ctx); err != nil {
			return 0, err
		}
		return f.fetchLocked(ctx)
	}
	if err == nil && status != http.StatusOK {
		err = drmerr.New(drmerr.KindUnavailable, "cluster.fetch",
			"cluster: leader answered %d for %s", status, cur)
	}
	if err != nil {
		M.FetchErrors.Inc()
		return 0, err
	}
	if M.FetchSeconds != nil {
		M.FetchSeconds.Observe(time.Since(start).Seconds())
	}
	// Apply before publishing: a reader that sees the new seq (role,
	// lag, readiness) must also see its records in stats and headroom.
	landed := func() ([]logstore.Record, error) { return land(store, w) }
	var recs []logstore.Record
	if f.cfg.Apply != nil {
		recs, err = f.cfg.Apply(ctx, landed)
	} else {
		recs, err = landed()
	}
	if err != nil {
		M.FetchErrors.Inc()
		return 0, err
	}
	M.AppliedRecords.Add(int64(len(recs)))
	f.mu.Lock()
	f.cursor = w.next
	f.leaderSeq.Store(w.leaderSeq)
	f.mu.Unlock()
	f.lastFetch.Store(time.Now().UnixNano())
	f.observeLag()
	return len(recs), nil
}

// window is one WAL fetch as it came off the wire.
type window struct {
	start, next wal.Cursor
	leaderSeq   uint64
	data        []byte
}

// land checks a window against store's frontier and ingests it,
// returning the decoded records. Ingest starts from the window's start,
// not the follower's cursor: ReadFrames may have advanced across a
// sealed-segment boundary before finding data. Both cursors must agree
// with the body — same segment, Next just past the last byte, one seq
// per frame — before anything is written, and a window with no frames
// is accepted only at the frontier or its one-step rotation, so a
// confused leader cannot move the cursor off the store's bytes.
func land(store *wal.Store, w window) ([]logstore.Record, error) {
	frames := wal.CountFrames(w.data)
	if w.next.Segment != w.start.Segment || w.next.Offset != w.start.Offset+int64(len(w.data)) ||
		w.next.Seq < w.start.Seq || w.next.Seq-w.start.Seq != uint64(frames) {
		return nil, drmerr.New(drmerr.KindStoreCorrupt, "cluster.fetch",
			"cluster: window %s..%s does not span its %d bytes of %d frames", w.start, w.next, len(w.data), frames)
	}
	if len(w.data) == 0 {
		return nil, store.CheckFrontier(w.start)
	}
	got, recs, err := store.IngestFrames(w.start, w.data)
	if err != nil {
		return nil, err
	}
	if got != w.next {
		return nil, drmerr.New(drmerr.KindStoreCorrupt, "cluster.fetch",
			"cluster: ingest landed at %s, leader said %s", got, w.next)
	}
	return recs, nil
}

// Sync drains the leader: fetches until a round-trip ingests nothing or
// the cursor reaches the leader's durable seq. Each response carries
// that seq, so a follower that one window brings level stops there,
// without a second, empty round-trip to confirm it.
func (f *Follower) Sync(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return drmerr.Wrap(drmerr.KindCancelled, "cluster.sync", err)
		}
		n, err := f.FetchOnce(ctx)
		if err != nil {
			return err
		}
		if n == 0 || f.Lag().Seqs == 0 {
			return nil
		}
	}
}

// Run is the fetch loop: a Sync per interval tick until ctx is done or
// Promote drains it. Always call Run at most once.
func (f *Follower) Run(ctx context.Context) {
	defer close(f.done)
	tick := time.NewTicker(f.cfg.Interval)
	defer tick.Stop()
	for {
		if err := f.Sync(ctx); err != nil && ctx.Err() == nil && f.cfg.OnError != nil {
			f.cfg.OnError(err)
		}
		select {
		case <-ctx.Done():
			return
		case <-f.stop:
			return
		case <-tick.C:
		}
	}
}

// Promote flips the follower to leader: the fetch loop is drained (the
// in-flight fetch completes), one final best-effort catch-up runs —
// best-effort because the usual reason to promote is a dead leader —
// and the promoted flag flips. The caller then clears its distributor's
// read-only gate and starts serving writes; the mirror store is already
// appendable and byte-identical to the leader's durable prefix.
func (f *Follower) Promote(ctx context.Context) Lag {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	if ctx != nil {
		_ = f.Sync(ctx) // best-effort final catch-up
	}
	f.promoted.Store(true)
	M.Promotions.Inc()
	return f.Lag()
}

// Done is closed when Run exits.
func (f *Follower) Done() <-chan struct{} { return f.done }

// rebootstrapLocked fetches the leader's bootstrap document and hands
// it to the Reset callback, repositioning at the new store's watermark.
func (f *Follower) rebootstrapLocked(ctx context.Context) error {
	if f.cfg.Reset == nil {
		return drmerr.New(drmerr.KindUnavailable, "cluster.bootstrap",
			"cluster: cursor compacted away and no Reset callback configured")
	}
	var doc wal.BootstrapDoc
	status, err := f.getJSON(ctx, f.cfg.Leader+"/v1/repl/snapshot", &doc)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return drmerr.New(drmerr.KindUnavailable, "cluster.bootstrap",
			"cluster: leader answered %d for bootstrap", status)
	}
	ns, err := f.cfg.Reset(ctx, &doc)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.store = ns
	f.cursor = ns.DurableCursor()
	f.mu.Unlock()
	M.Rebootstraps.Inc()
	return nil
}

func (f *Follower) observeLag() {
	lag := f.Lag()
	M.LagSeqs.Set(lag.Seqs)
	M.LagSeconds.Set(lag.Seconds)
}

// get GETs url with ctx's trace injected. For a 200 it returns the
// response with the body open; any other status comes back with the
// body drained and closed. A leader it cannot reach is unavailable.
func (f *Follower) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, drmerr.Wrap(drmerr.KindInvalidInput, "cluster.fetch", err)
	}
	trace.Inject(ctx, req.Header)
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, drmerr.Wrap(drmerr.KindUnavailable, "cluster.fetch", err)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}
	return resp, nil
}

// getJSON GETs url and decodes a JSON body into v for 200 responses;
// other statuses return with v untouched.
func (f *Follower) getJSON(ctx context.Context, url string, v any) (int, error) {
	resp, err := f.get(ctx, url)
	if err != nil || resp.StatusCode != http.StatusOK {
		return statusOf(resp), err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, drmerr.Wrap(drmerr.KindStoreCorrupt, "cluster.fetch", err)
	}
	return resp.StatusCode, nil
}

// getWindow GETs one WAL window. A 200 must be a raw frame window —
// any other content type is refused as ErrProtocolMismatch — whose body
// fits the follower's max_bytes; the body is read whole before the
// window is returned. Other statuses return with an empty window.
func (f *Follower) getWindow(ctx context.Context, url string) (window, int, error) {
	resp, err := f.get(ctx, url)
	if err != nil || resp.StatusCode != http.StatusOK {
		return window{}, statusOf(resp), err
	}
	defer resp.Body.Close()
	status := resp.StatusCode
	if ct := resp.Header.Get("Content-Type"); ct != walContentType {
		return window{}, status, fmt.Errorf("cluster: WAL fetch answered %q, want %q: %w", ct, walContentType, ErrProtocolMismatch)
	}
	var w window
	if w.start, err = parseCursorHeader(resp.Header, headerStart); err != nil {
		return window{}, status, err
	}
	if w.next, err = parseCursorHeader(resp.Header, headerNext); err != nil {
		return window{}, status, err
	}
	if w.leaderSeq, err = strconv.ParseUint(resp.Header.Get(headerLeaderSeq), 10, 64); err != nil {
		return window{}, status, drmerr.New(drmerr.KindStoreCorrupt, "cluster.fetch",
			"cluster: bad %s header %q", headerLeaderSeq, resp.Header.Get(headerLeaderSeq))
	}
	if w.data, err = readBody(resp, f.cfg.MaxBytes); err != nil {
		return window{}, status, err
	}
	return w, status, nil
}

// readBody reads a window body of at most max bytes, sized up front
// when the response declares its length.
func readBody(resp *http.Response, max int) ([]byte, error) {
	tooLong := func(n int64) error {
		return drmerr.New(drmerr.KindStoreCorrupt, "cluster.fetch",
			"cluster: WAL window of %d bytes exceeds max_bytes %d", n, max)
	}
	if n := resp.ContentLength; n >= 0 {
		if n > int64(max) {
			return nil, tooLong(n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, drmerr.Wrap(drmerr.KindStoreCorrupt, "cluster.fetch", err)
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, int64(max)+1))
	if err != nil {
		return nil, drmerr.Wrap(drmerr.KindStoreCorrupt, "cluster.fetch", err)
	}
	if len(buf) > max {
		return nil, tooLong(int64(len(buf)))
	}
	return buf, nil
}

// statusOf is resp's status code, 0 without a response.
func statusOf(resp *http.Response) int {
	if resp == nil {
		return 0
	}
	return resp.StatusCode
}

// ReinstallStore wipes dir, installs the bootstrap document, and opens
// a fresh store over it — the storage half of a Reset callback (the
// serving layer still rebuilds its distributor over the new store).
func ReinstallStore(dir string, doc *wal.BootstrapDoc, opts wal.Options) (*wal.Store, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	if err := wal.InstallBootstrap(dir, doc); err != nil {
		return nil, err
	}
	return wal.Open(dir, opts)
}

// ParseMaxLag parses a -max-lag flag value: a bare integer is a
// sequence-distance bound, a Go duration is a wall-time bound since the
// last successful fetch, and "0" disables both.
func ParseMaxLag(s string) (seqs int64, age time.Duration, err error) {
	if s == "" || s == "0" {
		return 0, 0, nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n < 0 {
			return 0, 0, fmt.Errorf("cluster: max-lag %d, want >= 0", n)
		}
		return n, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: max-lag %q is neither a sequence count nor a duration", s)
	}
	if d < 0 {
		return 0, 0, fmt.Errorf("cluster: max-lag %s, want >= 0", d)
	}
	return 0, d, nil
}
