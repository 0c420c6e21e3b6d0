package main

import (
	"errors"
	"net/http"
	"sort"

	"repro/internal/catalog"
	"repro/internal/drmerr"
	"repro/internal/license"
)

// catalogServer is the multi-content mode: every catalog entry is served
// at /v1/c/{content}/{perm}/..., plus a listing endpoint. It takes no
// lock: the catalog's entries and corpora are fixed once it is opened,
// and each entry's Distributor serialises its own writes.
type catalogServer struct {
	cat     *catalog.Catalog
	workers int
	obs     *serverObs
}

func newCatalogServer(cat *catalog.Catalog, workers int) *catalogServer {
	s := &catalogServer{cat: cat, workers: workers}
	s.obs = newServerObs(func() error {
		if s.cat.Len() == 0 {
			return errors.New("catalog empty")
		}
		return nil
	})
	s.obs.info = func() serviceStatus {
		st := serviceStatus{Name: "drmserver", Mode: s.cat.Mode().String(), Entries: s.cat.Len()}
		for _, e := range s.cat.Entries() {
			st.Licenses += e.Corpus.Len()
			st.Groups += e.Dist.NumGroups()
			st.LogRecords += e.Log.Len()
		}
		return st
	}
	s.obs.walBacklog = func() int64 {
		var total int64
		for _, e := range s.cat.Entries() {
			total += e.Log.Backlog()
		}
		return total
	}
	return s
}

func (s *catalogServer) routes() http.Handler {
	mux := http.NewServeMux()
	s.obs.mountCommon(mux)
	s.obs.wrap(mux, "GET /v1/contents", s.handleContents)
	s.obs.wrap(mux, "GET /v1/c/{content}/{perm}/corpus", s.entry(corpusAPI.handleCorpus))
	s.obs.wrap(mux, "GET /v1/c/{content}/{perm}/groups", s.entry(corpusAPI.handleGroups))
	s.obs.wrap(mux, "POST /v1/c/{content}/{perm}/issue", s.entry(corpusAPI.handleIssue))
	s.obs.wrap(mux, "POST /v1/c/{content}/{perm}/revoke", s.entry(corpusAPI.handleRevoke))
	s.obs.wrap(mux, "POST /v1/c/{content}/{perm}/transfer", s.entry(corpusAPI.handleTransfer))
	s.obs.wrap(mux, "POST /v1/c/{content}/{perm}/expire", s.entry(corpusAPI.handleExpire))
	s.obs.wrap(mux, "GET /v1/c/{content}/{perm}/audit", s.entry(corpusAPI.handleAudit))
	s.obs.wrap(mux, "GET /v1/c/{content}/{perm}/stats", s.entry(corpusAPI.handleStats))
	s.obs.wrap(mux, "GET /v1/c/{content}/{perm}/headroom", s.obs.drainGuard(s.entry(corpusAPI.handleHeadroom)))
	s.obs.wrap(mux, "POST /v1/c/{content}/{perm}/snapshot", s.entry(corpusAPI.handleSnapshot))
	s.obs.wrap(mux, "POST /v1/snapshot", s.handleSnapshotAll)
	return mux
}

// snapshotAllEntry is one entry's outcome in a catalog-wide snapshot.
type snapshotAllEntry struct {
	Content    string `json:"content"`
	Permission string `json:"permission"`
	Records    int    `json:"records"`
	Seq        uint64 `json:"seq"`
}

// handleSnapshotAll checkpoints every entry's log.
func (s *catalogServer) handleSnapshotAll(w http.ResponseWriter, r *http.Request) {
	infos, err := s.cat.SnapshotAll()
	if err != nil {
		writeError(r.Context(), w, err)
		return
	}
	out := struct {
		Entries []snapshotAllEntry `json:"entries"`
	}{Entries: []snapshotAllEntry{}}
	for e, info := range infos {
		out.Entries = append(out.Entries, snapshotAllEntry{
			Content:    e.Content,
			Permission: string(e.Permission),
			Records:    info.Records,
			Seq:        info.Seq,
		})
	}
	sort.Slice(out.Entries, func(i, j int) bool {
		if out.Entries[i].Content != out.Entries[j].Content {
			return out.Entries[i].Content < out.Entries[j].Content
		}
		return out.Entries[i].Permission < out.Entries[j].Permission
	})
	writeJSON(w, http.StatusOK, out)
}

// entry resolves the path's (content, perm) to a corpusAPI and
// dispatches, feeding the entry's sliding SLO window; unknown pairs get
// a typed 404 {error, kind} body and touch no entry window.
func (s *catalogServer) entry(h func(corpusAPI, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		content := r.PathValue("content")
		perm := license.Permission(r.PathValue("perm"))
		e := s.cat.Get(content, perm)
		if e == nil {
			writeError(r.Context(), w, drmerr.New(drmerr.KindNotFound, "drmserver",
				"no corpus for (%s, %s)", content, perm))
			return
		}
		api := corpusAPI{corpus: e.Corpus, dist: e.Dist, workers: s.workers, wal: e.Log}
		t := s.obs.slo.Entry(content + "/" + string(perm))
		entryObserved(t, func(w http.ResponseWriter, r *http.Request) { h(api, w, r) })(w, r)
	}
}

type contentsBody struct {
	Contents []contentEntry `json:"contents"`
}

type contentEntry struct {
	Content    string `json:"content"`
	Permission string `json:"permission"`
	Licenses   int    `json:"licenses"`
	Groups     int    `json:"groups"`
	LogRecords int    `json:"log_records"`
}

func (s *catalogServer) handleContents(w http.ResponseWriter, r *http.Request) {
	var body contentsBody
	for _, e := range s.cat.Entries() {
		body.Contents = append(body.Contents, contentEntry{
			Content:    e.Content,
			Permission: string(e.Permission),
			Licenses:   e.Corpus.Len(),
			Groups:     e.Dist.NumGroups(),
			LogRecords: e.Log.Len(),
		})
	}
	writeJSON(w, http.StatusOK, body)
}
