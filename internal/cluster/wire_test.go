package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/wal"
)

// serveWindow answers a WAL fetch in the wire shape a leader uses: the
// frame bytes as the body, framed by the cursor headers.
func serveWindow(w http.ResponseWriter, start, next wal.Cursor, leaderSeq uint64, data []byte) {
	h := w.Header()
	h.Set("Content-Type", walContentType)
	h.Set(headerStart, formatCursor(start))
	h.Set(headerNext, formatCursor(next))
	h.Set(headerLeaderSeq, strconv.FormatUint(leaderSeq, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// mixedLeader opens a leader store at dir holding n records of the
// failover workload with a TTL issue, a revoke and a transfer mixed in,
// so windows carry both frame versions and span segment rotations.
func mixedLeader(t *testing.T, dir string, n int) (*wal.Store, []logstore.Record) {
	t.Helper()
	_, base := failoverWorkload(t)
	recs := append([]logstore.Record(nil), base[:n]...)
	set := recs[0].Set
	recs = append(recs,
		logstore.Record{Set: set, Count: 7, Meta: logstore.Meta{Expiry: 1 << 40}},
		logstore.Record{Kind: logstore.KindRevoke, Set: set, Count: 3},
		logstore.Record{Kind: logstore.KindTransfer, Set: set, Count: 2},
	)
	store, err := wal.Open(dir, wal.Options{SegmentBytes: 16 + 6*24})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for _, r := range recs {
		if err := store.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return store, recs
}

// dirBytes reads every segment file under dir, keyed by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// walURL is the fetch URL for cur.
func walURL(base string, cur wal.Cursor, maxBytes int) string {
	return fmt.Sprintf("%s/v1/repl/wal?segment=%d&offset=%d&seq=%d&max_bytes=%d",
		base, cur.Segment, cur.Offset, cur.Seq, maxBytes)
}

// TestShipWireBodyByteIdentical: every window's body is the leader's
// segment range between its two cursor headers, byte for byte, across
// v1 and v2 frames and segment rotations, and the walk ends at the
// leader's seq with an empty window.
func TestShipWireBodyByteIdentical(t *testing.T) {
	ldir := t.TempDir()
	lstore, recs := mixedLeader(t, ldir, 20)
	srv := leaderServer(t, lstore)
	segs := dirBytes(t, ldir)
	cur := wal.StartCursor()
	var windows int
	for {
		resp, err := http.Get(walURL(srv.URL, cur, 100))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != walContentType {
			t.Fatalf("window at %s: status %d, content type %q", cur, resp.StatusCode, ct)
		}
		start, err := parseCursorHeader(resp.Header, headerStart)
		if err != nil {
			t.Fatal(err)
		}
		next, err := parseCursorHeader(resp.Header, headerNext)
		if err != nil {
			t.Fatal(err)
		}
		if ls := resp.Header.Get(headerLeaderSeq); ls != strconv.Itoa(len(recs)) {
			t.Fatalf("leader seq header %q, want %d", ls, len(recs))
		}
		if len(body) == 0 {
			if start != next || next.Seq != uint64(len(recs)) {
				t.Fatalf("empty window %s..%s before the leader's seq %d", start, next, len(recs))
			}
			break
		}
		seg := segs[fmt.Sprintf("%016d.seg", start.Segment)]
		if next.Segment != start.Segment || !bytes.Equal(body, seg[start.Offset:next.Offset]) {
			t.Fatalf("window %s..%s: %d body bytes differ from the leader's segment range", start, next, len(body))
		}
		if len(body) > 100 {
			t.Fatalf("window of %d bytes past max_bytes 100", len(body))
		}
		cur = next
		windows++
	}
	if windows < 3 {
		t.Fatalf("walk took %d windows, want several", windows)
	}
}

// refusedFetch runs one fetch from a fresh follower against handler and
// checks that it fails with a typed error and moves nothing: the store's
// seq, every segment byte, and the cursor the follower asks for next.
func refusedFetch(t *testing.T, maxBytes int, handler http.HandlerFunc) error {
	t.Helper()
	var lastQuery atomic.Pointer[string]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastQuery.Store(&r.URL.RawQuery)
		handler(w, r)
	}))
	defer srv.Close()
	fdir := t.TempDir()
	fstore, err := wal.Open(fdir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fstore.Close()
	f, err := NewFollower(FollowerConfig{Leader: srv.URL, Store: fstore, MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, fdir)
	_, ferr := f.FetchOnce(context.Background())
	if ferr == nil {
		t.Fatal("fetch accepted the window")
	}
	if drmerr.KindOf(ferr) == drmerr.KindUnknown {
		t.Fatalf("untyped fetch error: %v", ferr)
	}
	if fstore.Seq() != 0 || f.Role().Seq != 0 || f.Lag().LocalSeq != 0 {
		t.Fatalf("refused window moved the follower: store seq %d, role %+v", fstore.Seq(), f.Role())
	}
	if !maps.EqualFunc(dirBytes(t, fdir), before, bytes.Equal) {
		t.Fatal("refused window changed the follower's segment bytes")
	}
	f.FetchOnce(context.Background())
	if q, want := *lastQuery.Load(), "segment=1&offset=16&seq=0"; !strings.HasPrefix(q, want) {
		t.Fatalf("next fetch asked %q, want the unmoved cursor %s", q, want)
	}
	return ferr
}

// recordedWindow captures the real leader's answer to a genesis fetch.
func recordedWindow(t *testing.T, lstore *wal.Store) (start, next wal.Cursor, data []byte) {
	t.Helper()
	rr := httptest.NewRecorder()
	NewLeader(lstore, 0).HandleWAL(rr, httptest.NewRequest(http.MethodGet, walURL("", wal.StartCursor(), 0), nil))
	var err error
	if start, err = parseCursorHeader(rr.Header(), headerStart); err != nil {
		t.Fatal(err)
	}
	if next, err = parseCursorHeader(rr.Header(), headerNext); err != nil {
		t.Fatal(err)
	}
	return start, next, rr.Body.Bytes()
}

// TestFollowerRefusesTruncatedOrOversizedWindow: a body cut short —
// at a frame boundary under consistent framing, or mid-stream against
// its declared length — and a body longer than the follower's max_bytes
// are each refused, leaving the mirror and the cursor where they were.
func TestFollowerRefusesTruncatedOrOversizedWindow(t *testing.T) {
	lstore, recs := mixedLeader(t, t.TempDir(), 5)
	start, next, data := recordedWindow(t, lstore)
	if len(data) < 3*24 {
		t.Fatalf("genesis window of %d bytes, want several frames", len(data))
	}
	seq := uint64(len(recs))
	t.Run("cut at a frame boundary", func(t *testing.T) {
		refusedFetch(t, 0, func(w http.ResponseWriter, r *http.Request) {
			serveWindow(w, start, next, seq, data[:len(data)-24])
		})
	})
	t.Run("cut on the wire", func(t *testing.T) {
		refusedFetch(t, 0, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(data)))
			serveWindow(w, start, next, seq, data[:len(data)-5])
		})
	})
	t.Run("longer than max_bytes", func(t *testing.T) {
		refusedFetch(t, 2*24, func(w http.ResponseWriter, r *http.Request) {
			serveWindow(w, start, next, seq, data)
		})
	})
	t.Run("longer than max_bytes, unsized", func(t *testing.T) {
		refusedFetch(t, 2*24, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", walContentType)
			w.Header().Set(headerStart, formatCursor(start))
			w.Header().Set(headerNext, formatCursor(next))
			w.Header().Set(headerLeaderSeq, strconv.FormatUint(seq, 10))
			w.WriteHeader(http.StatusOK)
			for i := 0; i < len(data); i += 24 {
				w.Write(data[i:min(i+24, len(data))])
				w.(http.Flusher).Flush() // chunked: no declared length
			}
		})
	})
	t.Run("seq not one per frame", func(t *testing.T) {
		lying := next
		lying.Seq++
		refusedFetch(t, 0, func(w http.ResponseWriter, r *http.Request) {
			serveWindow(w, start, lying, seq, data)
		})
	})
}

// TestFollowerEmptyWindowOnlyAtFrontier: an empty window is accepted at
// the store's frontier and at its one-step rotation — the next fetch
// then asks from the rotated cursor — and refused anywhere else, with
// the cursor left where it was.
func TestFollowerEmptyWindowOnlyAtFrontier(t *testing.T) {
	for _, c := range []wal.Cursor{
		{Segment: 7, Offset: 999, Seq: 12345},
		{Segment: 1, Offset: 16, Seq: 12345},
		{Segment: 3, Offset: 16, Seq: 0},
	} {
		t.Run(c.String(), func(t *testing.T) {
			err := refusedFetch(t, 0, func(w http.ResponseWriter, r *http.Request) {
				serveWindow(w, c, c, c.Seq, nil)
			})
			if drmerr.KindOf(err) != drmerr.KindInvalidInput {
				t.Fatalf("empty window off the frontier: %v, want invalid_input", err)
			}
		})
	}
	t.Run("start and next disagree", func(t *testing.T) {
		refusedFetch(t, 0, func(w http.ResponseWriter, r *http.Request) {
			serveWindow(w, wal.StartCursor(), wal.Cursor{Segment: 1, Offset: 16, Seq: 9}, 9, nil)
		})
	})

	rotated := wal.Cursor{Segment: 2, Offset: 16}
	var queries []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		queries = append(queries, r.URL.RawQuery)
		if len(queries) == 1 {
			serveWindow(w, wal.StartCursor(), wal.StartCursor(), 0, nil)
			return
		}
		serveWindow(w, rotated, rotated, 0, nil)
	}))
	defer srv.Close()
	fstore, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fstore.Close()
	f, err := NewFollower(FollowerConfig{Leader: srv.URL, Store: fstore})
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if n, err := f.FetchOnce(context.Background()); err != nil || n != 0 {
			t.Fatalf("empty window at the frontier: n %d, err %v", n, err)
		}
	}
	want := []string{"segment=1&offset=16&seq=0", "segment=1&offset=16&seq=0", "segment=2&offset=16&seq=0"}
	for i, q := range queries {
		if !strings.HasPrefix(q, want[i]) {
			t.Fatalf("fetch %d asked %q, want %s", i, q, want[i])
		}
	}
}

// TestFollowerRefusesOtherWireFormat: a leader answering a WAL fetch in
// any other shape — here the JSON document of an older leader — is
// refused as a protocol mismatch.
func TestFollowerRefusesOtherWireFormat(t *testing.T) {
	err := refusedFetch(t, 0, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"batch": map[string]any{}, "leader_seq": 0})
	})
	if !errors.Is(err, ErrProtocolMismatch) || drmerr.KindOf(err) != drmerr.KindUnavailable {
		t.Fatalf("JSON window: %v, want a protocol mismatch", err)
	}
}

// TestFollowerPublishesAfterApply: while Apply is still running — the
// window landed, the fold not done — the follower keeps reporting the
// old seq; it reports the window's seq only once Apply has returned.
func TestFollowerPublishesAfterApply(t *testing.T) {
	lstore, recs := mixedLeader(t, t.TempDir(), 5)
	srv := leaderServer(t, lstore)
	fstore, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fstore.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	f, err := NewFollower(FollowerConfig{
		Leader: srv.URL, Store: fstore,
		Apply: func(_ context.Context, land func() ([]logstore.Record, error)) ([]logstore.Record, error) {
			rs, err := land()
			close(entered)
			<-release
			return rs, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var n int
	var ferr error
	go func() {
		defer wg.Done()
		n, ferr = f.FetchOnce(context.Background())
	}()
	<-entered
	if role, lag := f.Role(), f.Lag(); role.Seq != 0 || lag.LocalSeq != 0 || lag.LeaderSeq != 0 {
		t.Fatalf("during Apply: role %+v, lag %+v — the window was published before it was applied", role, lag)
	}
	close(release)
	wg.Wait()
	if ferr != nil || n == 0 {
		t.Fatalf("fetch: n %d, err %v", n, ferr)
	}
	if role, lag := f.Role(), f.Lag(); role.Seq != uint64(n) || lag.LeaderSeq != uint64(len(recs)) {
		t.Fatalf("after Apply: role %+v, lag %+v", role, lag)
	}
}

// TestFollowerSyncOneFetchPerTick: a Sync whose first window reaches the
// leader's seq stops there, and a Sync that is already caught up makes
// one fetch; a backlog larger than max_bytes still drains, one window
// per fetch.
func TestFollowerSyncOneFetchPerTick(t *testing.T) {
	lstore, recs := mixedLeader(t, t.TempDir(), 40)
	var fetches atomic.Int64
	mux := http.NewServeMux()
	NewLeader(lstore, 0).Mount(mux)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx := context.Background()
	// windows counts the non-empty windows a walk of the leader's log
	// takes at maxBytes per fetch.
	windows := func(maxBytes int) int64 {
		t.Helper()
		var n int64
		for cur := wal.StartCursor(); ; n++ {
			b, err := lstore.ReadFrames(cur, maxBytes)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Data) == 0 {
				return n
			}
			cur = b.Next
		}
	}
	sync := func(f *Follower, want int64) {
		t.Helper()
		fetches.Store(0)
		if err := f.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if got := fetches.Load(); got != want {
			t.Fatalf("Sync made %d fetches, want %d", got, want)
		}
		if lag := f.Lag(); lag.Seqs != 0 || lag.LocalSeq != uint64(len(recs)) {
			t.Fatalf("after Sync: lag %+v, want level with %d", lag, len(recs))
		}
	}
	follower := func(maxBytes int) *Follower {
		t.Helper()
		fstore, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fstore.Close() })
		f, err := NewFollower(FollowerConfig{Leader: srv.URL, Store: fstore, MaxBytes: maxBytes})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// A window never spans a segment, and the leader's are small, so
	// even a default window takes several fetches; none of them is an
	// extra, empty one.
	f := follower(0)
	if w := windows(DefaultMaxBytes); w < 3 {
		t.Fatalf("leader log fits %d windows, want several", w)
	}
	sync(f, windows(DefaultMaxBytes))
	sync(f, 1)

	// At two v1 frames per window the backlog drains window by window,
	// and a window smaller than a frame still takes one whole frame.
	f = follower(2 * 24)
	sync(f, windows(2*24))
	sync(follower(1), windows(1))

	// Appends after the catch-up arrive with the next tick's one fetch.
	if err := lstore.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	recs = append(recs, recs[0])
	deadline := time.Now().Add(5 * time.Second)
	for lstore.SyncedSeq() != uint64(len(recs)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sync(f, 1)
}

// FuzzFetchWindow: a leader answering a WAL fetch with any status,
// content type, cursor headers, declared length and body. The fetch
// either lands the window — its frames appended verbatim, the cursor at
// its Next — or fails with a typed error that leaves the mirror's seq,
// its segment bytes and its cursor as they were. It never panics.
func FuzzFetchWindow(f *testing.F) {
	var frames []byte
	{
		dir := f.TempDir()
		s, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncOS})
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range []logstore.Record{
			{Set: 3, Count: 10},
			{Set: 1, Count: 4, Meta: logstore.Meta{Expiry: 99}},
			{Kind: logstore.KindRevoke, Set: 3, Count: 2},
		} {
			if err := s.Append(r); err != nil {
				f.Fatal(err)
			}
		}
		s.Close()
		seg, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%016d.seg", 1)))
		if err != nil {
			f.Fatal(err)
		}
		frames = seg[16:]
	}
	genesis := formatCursor(wal.StartCursor())
	end := formatCursor(wal.Cursor{Segment: 1, Offset: 16 + int64(len(frames)), Seq: 3})
	f.Add(200, walContentType, genesis, end, "3", 0, frames)
	f.Add(200, walContentType, genesis, genesis, "0", 0, []byte{})
	f.Add(200, walContentType, "2,16,0", "2,16,0", "0", 0, []byte{})
	f.Add(200, walContentType, "7,999,12345", "7,999,12345", "12345", 0, []byte{})
	f.Add(200, walContentType, genesis, end, "3", 0, frames[:len(frames)-4])
	f.Add(200, walContentType, genesis, end, "3", 9, frames)
	f.Add(200, "application/json", genesis, end, "3", 0, []byte(`{"batch":{},"leader_seq":3}`))
	f.Add(200, walContentType, "1,16", end, "x", 0, frames)
	f.Add(410, walContentType, genesis, end, "3", 0, frames)
	f.Add(503, "", "", "", "", 0, []byte("down"))

	var mu sync.Mutex
	var answer func(http.ResponseWriter)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		a := answer
		mu.Unlock()
		a(w)
	}))
	defer srv.Close()
	f.Fuzz(func(t *testing.T, status int, ctype, start, next, leaderSeq string, extra int, body []byte) {
		status = 200 + (status%400+400)%400
		mu.Lock()
		answer = func(w http.ResponseWriter) {
			h := w.Header()
			h.Set("Content-Type", ctype)
			h.Set(headerStart, start)
			h.Set(headerNext, next)
			h.Set(headerLeaderSeq, leaderSeq)
			if extra > 0 { // declare more bytes than are sent: cut on the wire
				h.Set("Content-Length", strconv.Itoa(len(body)+extra%64))
			}
			w.WriteHeader(status)
			w.Write(body)
		}
		mu.Unlock()

		dir := t.TempDir()
		store, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncOS})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		fl, err := NewFollower(FollowerConfig{Leader: srv.URL, Store: store, MaxBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		n, err := fl.FetchOnce(context.Background())
		if err != nil {
			if drmerr.KindOf(err) == drmerr.KindUnknown {
				t.Fatalf("untyped error: %v", err)
			}
			if store.Seq() != 0 || fl.Lag().LocalSeq != 0 || !maps.EqualFunc(dirBytes(t, dir), before, bytes.Equal) {
				t.Fatalf("refused window moved the mirror: seq %d, lag %+v (%v)", store.Seq(), fl.Lag(), err)
			}
			return
		}
		got := store.DurableCursor()
		if n != int(got.Seq) || fl.Lag().LocalSeq != got.Seq {
			t.Fatalf("landed %d records, store at %s, follower at %+v", n, got, fl.Lag())
		}
		if n > 0 {
			seg := dirBytes(t, dir)[fmt.Sprintf("%016d.seg", got.Segment)]
			if !bytes.Equal(seg[len(seg)-len(body):], body) {
				t.Fatalf("landed window is not the body, verbatim")
			}
		}
	})
}
