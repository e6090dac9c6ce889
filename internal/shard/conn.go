package shard

import (
	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/query"
)

// Conn is the router's transport seam to one shard. The query-path methods
// — Exec, Fingerprint, ExecDelta, ScanPartials and Version — are the whole
// protocol the scatter-gather paths speak: they exchange logical queries,
// results, fingerprints and per-segment partials, never storage internals,
// so a future remote shard implements exactly this set over a wire. The
// remaining methods (Insert, SegmentVersions, TierStats, Stats,
// SetSegmentHeat, Close) are local-deployment extensions: placement,
// observability and lifecycle for shards this process owns.
type Conn interface {
	// Exec runs one query to completion on the shard (the shard's full
	// execution path: adaptation, reorganization and strategy choice all
	// happen here).
	Exec(q *query.Query) (*exec.Result, core.ExecInfo, error)
	// Fingerprint computes q's candidate-touch fingerprint against the
	// shard's current state — the shard's component of the router's
	// combined fingerprint. Cheap: zone maps and version counters only.
	Fingerprint(q *query.Query) (core.TouchFingerprint, error)
	// ExecDelta rescans only the shard's candidate segments whose versions
	// differ from have (shard-local indices). ok=false means the shard's
	// adaptive machinery wants the full Exec path this round.
	ExecDelta(q *query.Query, have map[int]uint64) (*core.DeltaScan, bool, error)
	// ScanPartials is the unconditional partial scan: every candidate
	// segment of the repairable query q, bypassing the adaptive gate that
	// can decline ExecDelta. The router's terminal fallback.
	ScanPartials(q *query.Query) (*core.DeltaScan, error)
	// Version returns the shard relation's mutation counter. Local conns
	// never fail; a remote conn may.
	Version() (uint64, error)

	// Local-deployment extensions, not part of the serving protocol.
	Insert(tuples [][]data.Value) error
	SegmentVersions() []uint64
	TierStats() core.TierStats
	Stats() core.Stats
	SetSegmentHeat(fn core.SegmentHeatFunc)
	Close()
}

// engineConn binds a Conn to an in-process core.Engine — the local
// transport. It adapts through the engine's public API only.
type engineConn struct {
	e *core.Engine
}

func (c *engineConn) Exec(q *query.Query) (*exec.Result, core.ExecInfo, error) {
	return c.e.Execute(q)
}

func (c *engineConn) Fingerprint(q *query.Query) (core.TouchFingerprint, error) {
	return c.e.QueryFingerprint(q), nil
}

func (c *engineConn) ExecDelta(q *query.Query, have map[int]uint64) (*core.DeltaScan, bool, error) {
	return c.e.QueryDelta(q, have)
}

// ScanPartials delegates to the engine, which picks the strategy by the
// same rule as every other scan.
func (c *engineConn) ScanPartials(q *query.Query) (*core.DeltaScan, error) {
	return c.e.ScanPartials(q)
}

func (c *engineConn) Version() (uint64, error) { return c.e.Version(), nil }

func (c *engineConn) Insert(tuples [][]data.Value) error { return c.e.Insert(tuples) }

func (c *engineConn) SegmentVersions() []uint64 { return c.e.SegmentVersions() }

func (c *engineConn) TierStats() core.TierStats { return c.e.TierStats() }

func (c *engineConn) Stats() core.Stats { return c.e.Stats() }

func (c *engineConn) SetSegmentHeat(fn core.SegmentHeatFunc) { c.e.SetSegmentHeat(fn) }

func (c *engineConn) Close() { c.e.Close() }
