// Package catalog manages a directory of license corpora and their
// issuance logs — the persistent, multi-content store behind a validation
// authority that serves more than one content item.
//
// Layout: for every (content, permission) pair the catalog keeps a corpus
// document and an issuance log in its directory,
//
//	<escape(content)>__<escape(permission)>.corpus.json
//	<escape(content)>__<escape(permission)>.wal/
//
// in the formats of internal/license (EncodeCorpus) and internal/wal
// (segmented checksummed WAL). Open scans the directory and wires every
// pair into an engine.Distributor, so issuance, instance validation, and
// geometric auditing work per content out of the box. Reopening a catalog
// resumes exactly where it left off — logs are append-only and corpora
// immutable on disk (license acquisition rewrites the corpus file
// atomically). An entry whose only log is a JSONL file
// (<stem>.log.jsonl, from before the WAL) is refused with a
// wal.MigrationError naming the drmaudit run that converts it.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/drmerr"
	"repro/internal/engine"
	"repro/internal/fsx"
	"repro/internal/license"
	"repro/internal/wal"
)

// Entry is one (content, permission) corpus with its distributor state.
type Entry struct {
	// Content and Permission identify the corpus.
	Content    string
	Permission license.Permission
	// Corpus is the redistribution-license set.
	Corpus *license.Corpus
	// Dist wraps the corpus for issuance and audits.
	Dist *engine.Distributor
	// Log is the durable issuance log backing Dist.
	Log *wal.Store
}

// Config tunes how a catalog opens and creates entries.
type Config struct {
	// Mode is the validation mode every distributor runs in.
	Mode engine.Mode
	// WAL configures the entries' logs (segment size, fsync policy,
	// auto-snapshot cadence).
	WAL wal.Options
}

// Catalog is a directory of entries. It is not safe for concurrent use;
// callers serialise access (cmd/drmserver wraps it in a mutex).
type Catalog struct {
	dir     string
	cfg     Config
	entries map[string]*Entry
}

const (
	corpusSuffix = ".corpus.json"
	logSuffix    = ".log.jsonl"
	walSuffix    = ".wal"
)

// key builds the map key and file stem for a pair.
func key(content string, perm license.Permission) string {
	return url.PathEscape(content) + "__" + url.PathEscape(string(perm))
}

// Open loads every corpus in dir (creating dir if needed) and prepares a
// distributor per entry in the given validation mode. It is OpenWith
// with a default Config.
func Open(dir string, mode engine.Mode) (*Catalog, error) {
	return OpenWith(dir, Config{Mode: mode})
}

// OpenWith loads every corpus in dir (creating dir if needed) under the
// given configuration.
func OpenWith(dir string, cfg Config) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: creating %s: %w", dir, err)
	}
	c := &Catalog{dir: dir, cfg: cfg, entries: make(map[string]*Entry)}
	names, err := filepath.Glob(filepath.Join(dir, "*"+corpusSuffix))
	if err != nil {
		return nil, fmt.Errorf("catalog: scanning %s: %w", dir, err)
	}
	sort.Strings(names)
	for _, path := range names {
		if err := c.load(path); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// load wires one corpus file (and its log) into the catalog.
func (c *Catalog) load(corpusPath string) error {
	f, err := os.Open(corpusPath)
	if err != nil {
		return fmt.Errorf("catalog: open %s: %w", corpusPath, err)
	}
	corpus, err := license.DecodeCorpus(f)
	f.Close()
	if err != nil {
		return drmerr.Wrapf(drmerr.KindStoreCorrupt, "catalog.load", err, "catalog: %s", corpusPath)
	}
	if corpus.Len() == 0 {
		return drmerr.New(drmerr.KindStoreCorrupt, "catalog.load", "catalog: %s holds no licenses", corpusPath)
	}
	stem := strings.TrimSuffix(corpusPath, corpusSuffix)
	return c.wire(corpus, stem)
}

// wire builds the Entry for a decoded corpus whose files share stem.
func (c *Catalog) wire(corpus *license.Corpus, stem string) error {
	first := corpus.License(0)
	k := key(first.Content, first.Permission)
	if _, dup := c.entries[k]; dup {
		return fmt.Errorf("catalog: duplicate corpus for (%s, %s)", first.Content, first.Permission)
	}
	log, err := c.openLog(stem)
	if err != nil {
		return err
	}
	dist := engine.NewDistributor(first.Content, corpus.Schema(), c.cfg.Mode, log)
	for _, l := range corpus.Licenses() {
		cp := *l
		if _, err := dist.AddRedistribution(&cp); err != nil {
			log.Close()
			return fmt.Errorf("catalog: wiring (%s, %s): %w", first.Content, first.Permission, err)
		}
	}
	if c.cfg.Mode == engine.ModeOnline {
		// Recovery warm-up: build the admission cache now, from the
		// compacted ledger the WAL just recovered, so the first issuance
		// after reopen pays no replay.
		if err := dist.WarmHeadroom(context.Background()); err != nil {
			log.Close()
			return fmt.Errorf("catalog: warming headroom for (%s, %s): %w", first.Content, first.Permission, err)
		}
	}
	c.entries[k] = &Entry{
		Content:    first.Content,
		Permission: first.Permission,
		Corpus:     dist.Corpus(),
		Dist:       dist,
		Log:        log,
	}
	return nil
}

// openLog opens (creating if needed) the WAL for stem. A JSONL log with
// no WAL beside it is refused, untouched, with the command that
// migrates it; when both exist the WAL is the log.
func (c *Catalog) openLog(stem string) (*wal.Store, error) {
	walDir := stem + walSuffix
	if _, err := os.Stat(walDir); errors.Is(err, os.ErrNotExist) {
		if _, err := os.Stat(stem + logSuffix); err == nil {
			return nil, &wal.MigrationError{Corpus: stem + corpusSuffix, Log: stem + logSuffix, WAL: walDir}
		}
	}
	return wal.Open(walDir, c.cfg.WAL)
}

// Add registers a new corpus, persisting it to disk. The corpus'
// (content, permission) pair must not exist yet.
func (c *Catalog) Add(corpus *license.Corpus) (*Entry, error) {
	if corpus.Len() == 0 {
		return nil, errors.New("catalog: cannot add an empty corpus")
	}
	first := corpus.License(0)
	stem := filepath.Join(c.dir, key(first.Content, first.Permission))
	if err := writeCorpusAtomic(stem+corpusSuffix, corpus); err != nil {
		return nil, err
	}
	if err := c.wire(corpus, stem); err != nil {
		return nil, err
	}
	return c.entries[key(first.Content, first.Permission)], nil
}

// writeCorpusAtomic installs the corpus document durably: temp file,
// fsync, rename, directory fsync (fsx.WriteFileAtomic — the same install
// idiom WAL snapshots use). A crash mid-install leaves either the old
// document or the new one, never a torn or unsynced file.
func writeCorpusAtomic(path string, corpus *license.Corpus) error {
	err := fsx.WriteFileAtomic(path, func(w io.Writer) error {
		return license.EncodeCorpus(w, corpus)
	})
	if err != nil {
		return fmt.Errorf("catalog: installing %s: %w", path, err)
	}
	return nil
}

// Acquire appends a redistribution license to an existing entry's corpus,
// rewrites the corpus file, and updates the live distributor (groups
// included, incrementally).
func (c *Catalog) Acquire(content string, perm license.Permission, l *license.License) error {
	e := c.Get(content, perm)
	if e == nil {
		return drmerr.New(drmerr.KindNotFound, "catalog.acquire", "catalog: no corpus for (%s, %s)", content, perm)
	}
	if _, err := e.Dist.AddRedistribution(l); err != nil {
		return err
	}
	stem := filepath.Join(c.dir, key(content, perm))
	return writeCorpusAtomic(stem+corpusSuffix, e.Corpus)
}

// Get returns the entry for (content, perm), or nil.
func (c *Catalog) Get(content string, perm license.Permission) *Entry {
	return c.entries[key(content, perm)]
}

// Entries returns all entries sorted by (content, permission).
func (c *Catalog) Entries() []*Entry {
	out := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Content != out[j].Content {
			return out[i].Content < out[j].Content
		}
		return out[i].Permission < out[j].Permission
	})
	return out
}

// Len returns the number of entries.
func (c *Catalog) Len() int { return len(c.entries) }

// Mode returns the validation mode every entry's distributor runs in.
func (c *Catalog) Mode() engine.Mode { return c.cfg.Mode }

// AuditAll runs the geometric audit over every entry. It is
// AuditAllContext with a background context.
func (c *Catalog) AuditAll(workers int) (map[*Entry]core.Report, error) {
	return c.AuditAllContext(context.Background(), workers)
}

// AuditAllContext runs the geometric audit over every entry under ctx.
// A deadline that expires mid-sweep returns the reports gathered so far
// (the cut-off entry's partial report included) and an error matching
// drmerr.ErrAuditIncomplete.
func (c *Catalog) AuditAllContext(ctx context.Context, workers int) (map[*Entry]core.Report, error) {
	out := make(map[*Entry]core.Report, len(c.entries))
	for _, e := range c.entries {
		rep, _, err := e.Dist.AuditContext(ctx, workers)
		if errors.Is(err, drmerr.ErrAuditIncomplete) {
			out[e] = rep
			return out, fmt.Errorf("catalog: auditing (%s, %s): %w", e.Content, e.Permission, err)
		}
		if err != nil {
			if drmerr.IsCancellation(err) {
				return out, fmt.Errorf("catalog: auditing (%s, %s): %w", e.Content, e.Permission, err)
			}
			return nil, fmt.Errorf("catalog: auditing (%s, %s): %w", e.Content, e.Permission, err)
		}
		out[e] = rep
	}
	return out, nil
}

// SnapshotAll checkpoints every entry's log, returning per-entry
// snapshot infos. It keeps going after a failure and returns the first
// error alongside whatever succeeded.
func (c *Catalog) SnapshotAll() (map[*Entry]wal.SnapshotInfo, error) {
	out := make(map[*Entry]wal.SnapshotInfo)
	var firstErr error
	for _, e := range c.entries {
		info, err := e.Log.Snapshot()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("catalog: snapshotting (%s, %s): %w", e.Content, e.Permission, err)
			}
			continue
		}
		out[e] = info
	}
	return out, firstErr
}

// Close closes every log. The catalog is unusable afterwards.
func (c *Catalog) Close() error {
	var firstErr error
	for _, e := range c.entries {
		if err := e.Log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.entries = nil
	return firstErr
}
