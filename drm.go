// Package drm is the public API of the geometric license-validation
// library, a Go reproduction of "A Geometric Approach for Efficient
// Licenses Validation in DRM" (Sachan, Emmanuel, Kankanhalli, 2010).
//
// # Model
//
// A distributor holds N redistribution licenses for a content item. Every
// license carries M instance-based constraints — modelled as an
// M-dimensional hyper-rectangle over a Schema of interval axes (validity
// period, ...) and set axes (allowed regions, ...) — plus an aggregate
// permission-count budget. Newly issued licenses must be contained in at
// least one redistribution license's rectangle (instance validation), and
// for every subset S of the N licenses the issued counts attributable to S
// must not exceed S's combined budget (aggregate validation): 2^N−1
// validation equations.
//
// # The geometric shortcut
//
// Two licenses overlap iff their rectangles intersect on every axis.
// Connected components ("groups") of the overlap graph partition the
// corpus; no issued license can ever belong to two groups, so every
// equation spanning groups is redundant. The Auditor builds the validation
// tree from the issuance log, splits it per group, and validates
// Σ_k (2^{N_k}−1) equations instead — the paper's headline gain
// (eq. 3, computed by Gain).
//
// # Quick start
//
//	ex := drm.Example1()                     // the paper's running example
//	aud, _ := drm.NewAuditor(ex.Corpus, store)
//	report, _ := aud.Audit()                 // 10 equations instead of 31
//	fmt.Println(report.OK(), aud.Gain())     // true 3.1
//
// See examples/ for runnable end-to-end scenarios and cmd/ for the
// workload generator, offline auditor, benchmark harness, and HTTP
// validation service.
package drm

import (
	"context"
	"crypto/ed25519"
	"io"

	"repro/internal/baseline"
	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/drmerr"
	"repro/internal/engine"
	"repro/internal/forecast"
	"repro/internal/geometry"
	"repro/internal/interval"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/region"
	"repro/internal/rtree"
	"repro/internal/signature"
	"repro/internal/vtree"
	"repro/internal/workload"
)

// Geometry: schemas, axes, rectangles.
type (
	// Schema fixes the ordered instance-constraint axes of a corpus.
	Schema = geometry.Schema
	// Axis describes one constraint dimension.
	Axis = geometry.Axis
	// Rect is a license's constraint hyper-rectangle.
	Rect = geometry.Rect
	// Value is one axis value (interval or categorical set).
	Value = geometry.Value
	// Interval is a closed [lo, hi] range over int64 coordinates.
	Interval = interval.Interval
	// Set is a categorical bitset (e.g. taxonomy leaf regions).
	Set = bitset.Set
	// Taxonomy is a hierarchical region universe.
	Taxonomy = region.Taxonomy
)

// Axis kinds.
const (
	KindInterval = geometry.KindInterval
	KindSet      = geometry.KindSet
)

// Licenses and corpora.
type (
	// License is a (K; P; I_1..I_M; A) tuple.
	License = license.License
	// Permission is the granted right P.
	Permission = license.Permission
	// Corpus is the distributor's ordered set of redistribution licenses.
	Corpus = license.Corpus
)

// License kinds and common permissions.
const (
	Redistribution = license.Redistribution
	Usage          = license.Usage

	Play       = license.Play
	Copy       = license.Copy
	Rip        = license.Rip
	Distribute = license.Distribute
)

// Logs and validation.
type (
	// Mask is a set of corpus indexes (the S of validation equations).
	Mask = bitset.Mask
	// Record is one issuance log row: belongs-to set plus count.
	Record = logstore.Record
	// LogStore is an append-only issuance log.
	LogStore = logstore.Store
	// MemLog is the in-memory log store.
	MemLog = logstore.Mem
	// ValidationTree is the prefix tree of [10] over log records.
	ValidationTree = vtree.Tree
	// Violation is one failed validation equation.
	Violation = vtree.Violation
	// Result summarises a single-tree validation run.
	Result = vtree.Result
	// Grouping is the partition of a corpus into disconnected groups.
	Grouping = overlap.Grouping
	// GroupTree is one divided per-group validation tree.
	GroupTree = core.GroupTree
	// Report is the merged outcome of a grouped validation run.
	Report = core.Report
	// GroupCompleteness records how much of one group a deadline-bounded
	// audit actually scanned.
	GroupCompleteness = core.GroupCompleteness
	// Auditor runs the full offline pipeline: log → tree → groups →
	// divided trees → per-group validation.
	Auditor = core.Auditor
	// Timings breaks an audit into the paper's C_T, D_T, V_T stages.
	Timings = core.Timings
)

// Distribution engine.
type (
	// Distributor manages one (content, permission) corpus: instance
	// validation, issuance, logging, auditing.
	Distributor = engine.Distributor
	// Network is a directory of distributors.
	Network = engine.Network
	// SpatialIndex is an R-tree over license rectangles.
	SpatialIndex = rtree.Tree
)

// Engine modes and sentinel errors.
const (
	ModeOffline = engine.ModeOffline
	ModeOnline  = engine.ModeOnline
)

var (
	// ErrInstanceInvalid marks issuances outside every license rectangle.
	ErrInstanceInvalid = engine.ErrInstanceInvalid
	// ErrAggregateExhausted marks online-mode aggregate rejections.
	ErrAggregateExhausted = engine.ErrAggregateExhausted
)

// Typed error taxonomy (internal/drmerr). Match with errors.Is against
// the sentinels, or classify with ErrorKind for mechanical dispatch.
type (
	// ErrorKind classifies a pipeline failure (violation, corpus
	// mismatch, cancelled, incomplete, ...).
	ErrorKind = drmerr.Kind
)

// Error kinds.
const (
	KindViolation       = drmerr.KindViolation
	KindInstanceInvalid = drmerr.KindInstanceInvalid
	KindCorpusMismatch  = drmerr.KindCorpusMismatch
	KindCrossGroup      = drmerr.KindCrossGroup
	KindStoreCorrupt    = drmerr.KindStoreCorrupt
	KindCancelled       = drmerr.KindCancelled
	KindIncomplete      = drmerr.KindIncomplete
	KindInvalidInput    = drmerr.KindInvalidInput
	KindNotFound        = drmerr.KindNotFound
)

var (
	// ErrAuditIncomplete matches audits cut short by a deadline or
	// cancellation; the verified-so-far Report accompanies the error and
	// Report.Completeness records which groups finished.
	ErrAuditIncomplete = drmerr.ErrAuditIncomplete
	// ErrCancelled matches work abandoned on context cancellation before
	// any partial result was worth returning.
	ErrCancelled = drmerr.ErrCancelled
	// ErrViolation matches aggregate-constraint violations.
	ErrViolation = drmerr.ErrViolation
	// ErrCrossGroup matches log records whose belongs-to set spans
	// overlap groups (impossible under Corollary 1.1 — corrupt log).
	ErrCrossGroup = drmerr.ErrCrossGroup
	// ErrCorpusMismatch matches corpus/grouping/aggregate shape
	// mismatches.
	ErrCorpusMismatch = drmerr.ErrCorpusMismatch
	// ErrStoreCorrupt matches undecodable or invalid persisted state.
	ErrStoreCorrupt = drmerr.ErrStoreCorrupt
	// ErrNotFound matches missing-entity lookups.
	ErrNotFound = drmerr.ErrNotFound
)

// ErrorKindOf returns the kind of the outermost classified error in err's
// chain (KindUnknown for errors outside the taxonomy).
func ErrorKindOf(err error) ErrorKind { return drmerr.KindOf(err) }

// ErrorHTTPStatus maps a pipeline error to the HTTP status the validation
// service uses for it (409 violation, 422 model errors, 499 cancelled,
// 503 store corrupt, 504 incomplete, ...).
func ErrorHTTPStatus(err error) int { return drmerr.HTTPStatus(err) }

// Workloads.
type (
	// WorkloadConfig parameterises the §5 synthetic generator.
	WorkloadConfig = workload.Config
	// Workload is a generated corpus plus issuance log.
	Workload = workload.Workload
)

// Example1 returns the paper's running example (5 licenses, Table 2 log).
func Example1() *license.Example1 { return license.NewExample1() }

// World returns the default region taxonomy used by the examples.
func World() *Taxonomy { return region.World() }

// NewSchema builds a constraint schema; see geometry.NewSchema.
func NewSchema(axes ...Axis) (*Schema, error) { return geometry.NewSchema(axes...) }

// NewRect builds a constraint rectangle over a schema.
func NewRect(s *Schema, vals ...Value) (Rect, error) { return geometry.NewRect(s, vals...) }

// IntervalValue wraps an interval as an axis value.
func IntervalValue(iv Interval) Value { return geometry.IntervalValue(iv) }

// SetValue wraps a categorical set as an axis value.
func SetValue(s Set) Value { return geometry.SetValue(s) }

// NewInterval returns the closed interval [lo, hi].
func NewInterval(lo, hi int64) Interval { return interval.New(lo, hi) }

// DateRange parses a dd/mm/yy validity period into an interval.
func DateRange(from, to string) (Interval, error) { return interval.DateRange(from, to) }

// NewCorpus creates an empty redistribution-license corpus.
func NewCorpus(s *Schema) *Corpus { return license.NewCorpus(s) }

// NewMemLog returns an in-memory issuance log.
func NewMemLog() *MemLog { return logstore.NewMem(0) }

// EncodeCorpus writes a corpus as a self-describing JSON document.
func EncodeCorpus(w io.Writer, c *Corpus) error { return license.EncodeCorpus(w, c) }

// DecodeCorpus reads a corpus document written by EncodeCorpus.
func DecodeCorpus(r io.Reader) (*Corpus, error) { return license.DecodeCorpus(r) }

// GroupsOf computes the disconnected groups of a corpus (Algorithm 3 over
// the overlap graph).
func GroupsOf(c *Corpus) Grouping { return overlap.GroupsOf(c) }

// Gain computes the paper's eq. 3 for a grouping.
func Gain(g Grouping) float64 { return core.Gain(g) }

// NewAuditor prepares the grouped offline validator for a corpus and log.
func NewAuditor(c *Corpus, log LogStore) (*Auditor, error) { return core.NewAuditor(c, log) }

// NewAuditorContext is NewAuditor with a cancellable log replay: the
// dominant preparation cost on huge logs can be abandoned early.
func NewAuditorContext(ctx context.Context, c *Corpus, log LogStore) (*Auditor, error) {
	return core.NewAuditorContext(ctx, c, log)
}

// NewDistributor creates a distribution endpoint for one (content,
// permission) corpus.
func NewDistributor(name string, s *Schema, mode engine.Mode, log LogStore) *Distributor {
	return engine.NewDistributor(name, s, mode, log)
}

// NewNetwork creates a distributor directory.
func NewNetwork(s *Schema, mode engine.Mode) *Network { return engine.NewNetwork(s, mode) }

// GenerateWorkload builds a §5-style synthetic corpus and log.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) { return workload.Generate(cfg) }

// DefaultWorkload returns the paper's §5 configuration for N licenses.
func DefaultWorkload(n int) WorkloadConfig { return workload.Default(n) }

// NewEquationAllocator returns the loss-free online issuance policy backed
// by validation-equation headroom.
func NewEquationAllocator(aggregates []int64) (*baseline.EquationAllocator, error) {
	return baseline.NewEquationAllocator(aggregates)
}

// Operations and extensions beyond the paper.
type (
	// Explanation decomposes one validation equation into contributions
	// and budgets.
	Explanation = core.Explanation
	// CapacityReport summarises per-license headrooms and group
	// utilization.
	CapacityReport = core.CapacityReport
	// Catalog is a persistent multi-content corpus store.
	Catalog = catalog.Catalog
	// CatalogEntry is one (content, permission) corpus in a catalog.
	CatalogEntry = catalog.Entry
)

// Explain decomposes the validation equation for a (single-group) set.
func Explain(trees []*GroupTree, set Mask) (Explanation, error) {
	return core.Explain(trees, set)
}

// ExplainReport explains every violation in a report.
func ExplainReport(trees []*GroupTree, rep Report) ([]Explanation, error) {
	return core.ExplainReport(trees, rep)
}

// Capacity computes per-license headrooms and group utilization.
func Capacity(trees []*GroupTree) (CapacityReport, error) {
	return core.Capacity(trees)
}

// OpenCatalog loads (creating if needed) a multi-content corpus directory.
func OpenCatalog(dir string, mode engine.Mode) (*Catalog, error) {
	return catalog.Open(dir, mode)
}

// ForecastStep is one point of an expiry timeline: the validation plan
// after a wave of license expiries.
type ForecastStep = forecast.Step

// ExpiryTimeline projects groups, equation counts, and gain across license
// expiries along the named interval axis.
func ExpiryTimeline(c *Corpus, axis string) ([]ForecastStep, error) {
	return forecast.Timeline(c, axis)
}

// CutLicenses returns the licenses whose expiry or revocation would split
// their overlap group (making validation strictly cheaper).
func CutLicenses(c *Corpus) Mask {
	return overlap.CutLicenses(overlap.BuildAdjacency(c))
}

// License integrity (Ed25519 over canonical license bytes).
var (
	// ErrBadSignature marks failed license or corpus verification.
	ErrBadSignature = signature.ErrBadSignature
)

// GenerateIssuerKey creates an Ed25519 key pair for a license issuer.
func GenerateIssuerKey() (ed25519.PublicKey, ed25519.PrivateKey, error) {
	return signature.GenerateKey()
}

// SignLicense signs the license's canonical bytes.
func SignLicense(l *License, priv ed25519.PrivateKey) ([]byte, error) {
	return signature.Sign(l, priv)
}

// VerifyLicense checks an issuer signature over a license.
func VerifyLicense(l *License, pub ed25519.PublicKey, sig []byte) error {
	return signature.Verify(l, pub, sig)
}

// WriteSignedCorpus writes a corpus document signed by the issuer.
func WriteSignedCorpus(w io.Writer, c *Corpus, priv ed25519.PrivateKey) error {
	return signature.WriteSignedCorpus(w, c, priv)
}

// ReadSignedCorpus verifies and decodes a signed corpus document; a nil
// trusted key means trust-on-first-use (the embedded key is returned for
// pinning).
func ReadSignedCorpus(r io.Reader, trusted ed25519.PublicKey) (*Corpus, ed25519.PublicKey, error) {
	return signature.ReadSignedCorpus(r, trusted)
}
