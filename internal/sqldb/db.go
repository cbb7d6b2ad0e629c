package sqldb

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/telemetry"
)

// ColumnMeta describes one table column in the database catalog.
type ColumnMeta struct {
	Name string
	Kind dataframe.Kind
}

// TableInfo describes one table.
type TableInfo struct {
	Name    string
	Rows    int
	Columns []ColumnMeta
	// Bytes is the table's estimated gio-encoded size: the sum of its
	// columns' encoded block payloads, computed without encoding.
	Bytes int64
}

// table is one resident table: frames are held as segments by reference
// (zero-copy; their columns are marked shared), concatenated into a single
// materialized frame on first read.
type table struct {
	info     TableInfo
	segments []*dataframe.Frame
	mat      *dataframe.Frame
	// colStats lazily caches per-segment column stats for WHERE pruning,
	// keyed by column identity. Shared columns are immutable, so an entry
	// stays valid as long as its column is referenced by a live segment;
	// the map is dropped whenever the segment list is replaced.
	colStats map[*dataframe.Column]dataframe.Stats
}

// DB is an in-memory analytical database: named column tables served
// from resident frames. Ingestion is zero-copy: BulkAppend stores frame
// references instead of copying cells (O(columns) per frame, not
// O(cells)), and reads are served from the resident frames under the
// shared immutability contract (see dataframe.Column.MarkShared). All
// operations are safe for concurrent use.
type DB struct {
	mu        sync.Mutex
	tables    map[string]*table
	bytesRead int64

	// Pre-resolved telemetry instruments (SetMetrics); nil records nothing.
	queryTreeSeconds *telemetry.Histogram
	queryVecSeconds  *telemetry.Histogram
	scannedBytes     *telemetry.Counter
	segmentsPruned   *telemetry.Counter
	rowsFiltered     *telemetry.Counter
}

// New returns an empty database.
func New() *DB {
	return &DB{tables: map[string]*table{}}
}

// CreateStaged returns New(); dir is ignored and never created.
//
// Deprecated: use New.
func CreateStaged(dir string) (*DB, error) { return New(), nil }

// CatalogError reports table-level failures with a DuckDB-like message
// shape that the QA agent can parse.
type CatalogError struct{ Msg string }

func (e *CatalogError) Error() string { return "Catalog Error: " + e.Msg }

// CreateTable writes frame as a new table; it fails if the name exists.
func (db *DB) CreateTable(name string, f *dataframe.Frame) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return &CatalogError{Msg: fmt.Sprintf("table %q already exists", name)}
	}
	db.setSegmentsLocked(name, []*dataframe.Frame{f})
	return nil
}

// CreateOrReplaceTable writes frame, replacing any existing table.
func (db *DB) CreateOrReplaceTable(name string, f *dataframe.Frame) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.setSegmentsLocked(name, []*dataframe.Frame{f})
	return nil
}

// BulkAppend appends frames to name, creating the table if absent. It is
// zero-copy: each frame is retained as a table segment by reference —
// O(columns) bookkeeping per frame, no cell is touched — with its columns
// marked shared, so staging a cached snapshot costs column pointers
// instead of a deep copy. The segments concatenate into one contiguous
// frame lazily, on the table's first read. Schemas must match; frames are
// never mutated.
func (db *DB) BulkAppend(name string, frames ...*dataframe.Frame) error {
	if len(frames) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, exists := db.tables[name]
	if !exists {
		// Validate the full batch against frame 0's schema (it trivially
		// matches itself) so mismatch errors carry the caller's frame index.
		if err := db.validateBatch(name, schemaOf(frames[0]), frames); err != nil {
			return err
		}
		db.setSegmentsLocked(name, frames)
		return nil
	}
	if err := db.validateBatch(name, t.info.Columns, frames); err != nil {
		return fmt.Errorf("sqldb: append to %q: schema mismatch with existing table: %w", name, err)
	}
	for _, f := range frames {
		t.segments = append(t.segments, f.Shallow().MarkShared())
		t.info.Rows += f.NumRows()
		t.info.Bytes += estimatedBytes(f)
	}
	t.mat = nil
	return nil
}

// schemaOf extracts a frame's column metadata.
func schemaOf(f *dataframe.Frame) []ColumnMeta {
	cols := make([]ColumnMeta, f.NumCols())
	for i := 0; i < f.NumCols(); i++ {
		c := f.ColumnAt(i)
		cols[i] = ColumnMeta{Name: c.Name, Kind: c.Kind}
	}
	return cols
}

// validateBatch checks every frame against the schema, attributing
// mismatches by batch index.
func (db *DB) validateBatch(name string, schema []ColumnMeta, frames []*dataframe.Frame) error {
	for fi, f := range frames {
		if f.NumCols() != len(schema) {
			return fmt.Errorf("sqldb: bulk append to %q: frame %d has %d columns, want %d", name, fi, f.NumCols(), len(schema))
		}
		for i, cm := range schema {
			c := f.ColumnAt(i)
			if c.Name != cm.Name || c.Kind != cm.Kind {
				return fmt.Errorf("sqldb: bulk append to %q: frame %d column %d: %s/%s vs %s/%s",
					name, fi, i, c.Name, c.Kind, cm.Name, cm.Kind)
			}
		}
	}
	return nil
}

// setSegmentsLocked (re)creates a table over the given segments by
// reference, replacing any previous content. Caller holds mu.
func (db *DB) setSegmentsLocked(name string, frames []*dataframe.Frame) {
	t := &table{info: TableInfo{Name: name, Columns: schemaOf(frames[0])}}
	for _, f := range frames {
		t.segments = append(t.segments, f.Shallow().MarkShared())
		t.info.Rows += f.NumRows()
		t.info.Bytes += estimatedBytes(f)
	}
	if len(t.segments) == 1 {
		t.mat = t.segments[0]
	}
	db.tables[name] = t
}

// materializeLocked resolves the table's single contiguous frame,
// concatenating its segments (one copy, amortized over every later read).
// Caller holds mu.
func (db *DB) materializeLocked(t *table) (*dataframe.Frame, error) {
	if t.mat != nil {
		return t.mat, nil
	}
	mat, err := dataframe.Concat(t.segments...)
	if err != nil {
		return nil, fmt.Errorf("sqldb: materialize %q: %w", t.info.Name, err)
	}
	mat.MarkShared()
	t.mat = mat
	// Collapse the segments so the pre-concat frames (and any cache vectors
	// they alias) can be released. Cached stats point at the old segment
	// columns, so they go too.
	t.segments = []*dataframe.Frame{mat}
	t.colStats = nil
	return mat, nil
}

// Tables lists the catalog, sorted by name.
func (db *DB) Tables() []TableInfo {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]TableInfo, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Table returns one table's catalog entry.
func (db *DB) Table(name string) (TableInfo, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return TableInfo{}, false
	}
	return t.info, true
}

// SizeBytes returns the total estimated encoded size of all tables — the
// storage-overhead numerator in the paper's §4.1.3 metric: the gio block
// payloads the tables would encode to, minus the file header.
func (db *DB) SizeBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var total int64
	for _, t := range db.tables {
		total += t.info.Bytes
	}
	return total
}

// SetMetrics points the database at a telemetry registry: every Query
// observes its wall-clock duration into infera_sql_query_seconds (labelled
// by the execution backend that served it), every read charges its pruned
// column bytes to infera_sql_scanned_bytes_total, and the vectorized
// engine counts pruned segments and filtered rows. All series carry the
// given labels (the serving layer passes ensemble=<shard>). A nil registry
// records nothing.
func (db *DB) SetMetrics(r *telemetry.Registry, labels ...telemetry.Label) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if r == nil {
		db.queryTreeSeconds, db.queryVecSeconds = nil, nil
		db.scannedBytes, db.segmentsPruned, db.rowsFiltered = nil, nil, nil
		return
	}
	r.SetHelp("infera_sql_query_seconds", "Wall-clock duration of one SQL query against a staging database, by execution backend.")
	r.SetHelp("infera_sql_scanned_bytes_total", "Cumulative encoded-size bytes of columns served to reads and queries.")
	r.SetHelp("infera_sql_segments_pruned_total", "Table segments skipped entirely by min/max WHERE pruning.")
	r.SetHelp("infera_sql_rows_filtered_total", "Rows scanned by SQL queries and rejected by the WHERE clause.")
	withBackend := func(be Backend) []telemetry.Label {
		ls := make([]telemetry.Label, 0, len(labels)+1)
		ls = append(ls, labels...)
		return append(ls, telemetry.L("backend", be.String()))
	}
	db.queryTreeSeconds = r.Histogram("infera_sql_query_seconds", nil, withBackend(BackendTreeWalk)...)
	db.queryVecSeconds = r.Histogram("infera_sql_query_seconds", nil, withBackend(BackendVectorized)...)
	db.scannedBytes = r.Counter("infera_sql_scanned_bytes_total", labels...)
	db.segmentsPruned = r.Counter("infera_sql_segments_pruned_total", labels...)
	db.rowsFiltered = r.Counter("infera_sql_rows_filtered_total", labels...)
}

// BytesScanned reports cumulative data-block bytes served to reads and
// queries, as encoded-size equivalents of the columns each read actually
// selected. Column pruning keeps this proportional to what a query
// references.
func (db *DB) BytesScanned() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.bytesRead
}

// ReadTable returns selected columns of a table (no SQL); names empty
// means all columns. The result is a fresh frame shell over the table's
// resident shared vectors — no cell is copied, and callers must treat the
// column data as immutable (growth via Append is copy-on-write).
func (db *DB) ReadTable(name string, columns ...string) (*dataframe.Frame, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, &CatalogError{Msg: fmt.Sprintf("table %q not found", name)}
	}
	mat, err := db.materializeLocked(t)
	if err != nil {
		return nil, err
	}
	var out *dataframe.Frame
	if len(columns) == 0 {
		out = mat.Shallow()
	} else {
		out, err = mat.Select(columns...)
		if err != nil {
			return nil, err
		}
	}
	var scanned int64
	for i := 0; i < out.NumCols(); i++ {
		scanned += gio.EncodedSize(out.ColumnAt(i))
	}
	db.bytesRead += scanned
	db.scannedBytes.Add(scanned)
	return out, nil
}

// Backend names a query engine. Production has one, the vectorized
// planner; the tree-walk is its reference implementation, reached only
// through QueryBackend(sql, BackendTreeWalk).
type Backend int

const (
	// Deprecated: every statement runs on the one engine; use Query.
	BackendAuto Backend = iota
	// BackendTreeWalk runs the row-at-a-time reference engine, the oracle
	// the differential tests and the fuzzer compare the engine with.
	BackendTreeWalk
	// Deprecated: every statement runs on the one engine; use Query.
	BackendVectorized
)

func (b Backend) String() string {
	switch b {
	case BackendTreeWalk:
		return "treewalk"
	case BackendVectorized:
		return "vectorized"
	default:
		return "auto"
	}
}

// Query parses and executes a SELECT. The statement compiles to batch
// kernels that run directly over the table's resident segments — no
// concat materialization — with min/max segment pruning; any expression
// no kernel covers runs on the reference evaluator, row by row, with the
// tree-walk's results and errors.
func (db *DB) Query(sql string) (*dataframe.Frame, error) {
	return db.QueryBackend(sql, BackendVectorized)
}

// QueryBackend is Query, or, with BackendTreeWalk, the reference engine.
func (db *DB) QueryBackend(sql string, be Backend) (*dataframe.Frame, error) {
	if be != BackendTreeWalk {
		be = BackendVectorized
	}
	start := time.Now()
	var st execStats
	var f *dataframe.Frame
	stmt, err := parseSelect(sql)
	switch {
	case err != nil:
	case be == BackendTreeWalk:
		f, err = db.queryTreeWalk(stmt, &st)
	default:
		f, err = db.queryVectorized(stmt, &st)
	}
	db.finishQuery(be, start, &st)
	return f, err
}

// finishQuery records latency (to the serving backend's series) and the
// query's filtered-row count.
func (db *DB) finishQuery(be Backend, start time.Time, st *execStats) {
	db.mu.Lock()
	hist := db.queryTreeSeconds
	if be == BackendVectorized {
		hist = db.queryVecSeconds
	}
	rf := db.rowsFiltered
	db.mu.Unlock()
	hist.ObserveDuration(time.Since(start))
	rf.Add(st.rowsFiltered)
}

// queryTreeWalk materializes the referenced columns and runs the row
// engine.
func (db *DB) queryTreeWalk(stmt *selectStmt, st *execStats) (*dataframe.Frame, error) {
	var cols []string
	if !stmt.hasStar() {
		cols = stmt.referencedColumns()
	}
	src, err := db.ReadTable(stmt.table, cols...)
	if err != nil {
		return nil, err
	}
	return execute(stmt, src, st)
}

// queryVectorized plans stmt and runs it over the table's segments.
func (db *DB) queryVectorized(stmt *selectStmt, st *execStats) (*dataframe.Frame, error) {
	db.mu.Lock()
	plan, scan, prunedCount, err := db.planLocked(stmt)
	if err != nil {
		db.mu.Unlock()
		return nil, err
	}
	// Charge the scan: referenced columns over surviving segments only —
	// the same accounting ReadTable applies, minus what pruning skipped.
	cols := stmt.referencedColumns()
	if stmt.hasStar() {
		cols = plan.names
	}
	var scanned int64
	for i, seg := range scan.segs {
		if scan.pruned[i] {
			continue
		}
		for _, name := range cols {
			scanned += gio.EncodedSize(seg.MustColumn(name))
		}
	}
	db.bytesRead += scanned
	scannedC, prunedC := db.scannedBytes, db.segmentsPruned
	db.mu.Unlock()

	scannedC.Add(scanned)
	prunedC.Add(int64(prunedCount))
	return plan.run(scan, st)
}

// planLocked plans stmt against its table and snapshots the table's
// segments — shared columns are immutable, so the scan needs no lock —
// marking those whose stats prove WHERE matches nothing. A WHERE on the
// row evaluator is never pruned: it may fail on a row the stats would
// skip. Caller holds mu.
func (db *DB) planLocked(stmt *selectStmt) (*vecPlan, segScan, int, error) {
	t, ok := db.tables[stmt.table]
	if !ok {
		return nil, segScan{}, 0, &CatalogError{Msg: fmt.Sprintf("table %q not found", stmt.table)}
	}
	plan, err := planVectorized(stmt, t.info.Columns)
	if err != nil {
		return nil, segScan{}, 0, err
	}
	scan := segScan{segs: append([]*dataframe.Frame(nil), t.segments...), pruned: make([]bool, len(t.segments))}
	pruned := 0
	if _, rowWhere := plan.where.(*rowNode); stmt.where != nil && !rowWhere {
		for i, seg := range scan.segs {
			stats := func(name string) (dataframe.Stats, bool) { return db.segStatsLocked(t, seg, name) }
			if pruneExpr(stmt.where, stats) == triFalse {
				scan.pruned[i] = true
				pruned++
			}
		}
	}
	return plan, scan, pruned, nil
}

// segStatsLocked returns (computing and caching on first use) one
// column's stats within one segment. Caller holds mu.
func (db *DB) segStatsLocked(t *table, seg *dataframe.Frame, name string) (dataframe.Stats, bool) {
	c, err := seg.Column(name)
	if err != nil {
		return dataframe.Stats{}, false
	}
	if s, ok := t.colStats[c]; ok {
		return s, true
	}
	s := dataframe.ComputeStats(c)
	if t.colStats == nil {
		t.colStats = map[*dataframe.Column]dataframe.Stats{}
	}
	t.colStats[c] = s
	return s, true
}

// ExplainInfo is DB.ExplainQuery's report: what a statement would scan and
// how it would run, without executing it.
type ExplainInfo struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
	// Backend is always "vectorized", the one engine.
	Backend string `json:"backend"`
	// RowReason is the first expression no kernel covers, which runs on
	// the reference evaluator; empty when kernels cover the statement.
	RowReason      string `json:"row_reason,omitempty"`
	Segments       int    `json:"segments"`
	SegmentsPruned int    `json:"segments_pruned"`
}

// ExplainQuery reports the execution plan for sql against this database:
// the referenced columns, the first expression that needs the row
// evaluator, and how many resident segments min/max stats would prune
// from the scan. A statement the planner rejects (a column its table
// lacks) returns the error Query would.
func (db *DB) ExplainQuery(sql string) (ExplainInfo, error) {
	stmt, err := parseSelect(sql)
	if err != nil {
		return ExplainInfo{}, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	plan, scan, pruned, err := db.planLocked(stmt)
	if err != nil {
		return ExplainInfo{}, err
	}
	return ExplainInfo{
		Table: stmt.table, Columns: stmt.referencedColumns(), Backend: BackendVectorized.String(),
		RowReason: plan.rowReason, Segments: len(scan.segs), SegmentsPruned: pruned,
	}, nil
}

// estimatedBytes prices a frame at its gio-encoded block size without
// encoding anything (gio.EncodedSize per column). No allocation — the
// zero-copy ingestion path stays O(columns) in allocations.
func estimatedBytes(f *dataframe.Frame) int64 {
	var total int64
	for i := 0; i < f.NumCols(); i++ {
		total += gio.EncodedSize(f.ColumnAt(i))
	}
	return total
}
