package engine

import (
	"repro/internal/ast"
	"repro/internal/value"
)

// Public streaming execution API. ExecuteStream returns the tree Execute
// drains: the same rows in the same order, delivered as an incremental
// sequence of row batches instead of one Result. It is the engine-side half
// of the streamed wire protocol: the server pulls batches from a
// ResultStream and frames each one onto the wire as it is produced.
//
// What the first batch waits for follows from the tree (stream.go), not
// from a mode: a block without a breaker delivers while its scan is still
// running (join build sides are drained before the first batch — a hash
// join cannot probe earlier); a grouped block delivers after accumulation
// plus one batch of finalization; a sorted block after its whole input. A
// LIMIT closes the producers the moment it is satisfied.
//
// A ResultStream has exactly one consumer; its Close cancels any producer
// workers, waits for them to exit, and folds the stats of the work they
// actually performed — no goroutine outlives the stream, no matter how
// early the consumer abandons it.

// ResultStream is a pull-based streaming query result. The consumer calls
// Next until it returns nil (stream exhausted) and must call Close if it
// abandons the stream early.
type ResultStream struct {
	cols []string
	ctx  *execCtx
	it   batchIterator
	done bool
}

// ExecuteStream starts q and returns its result as a batch stream. The
// column names are available immediately; batches arrive via Next. The
// whole execution — subqueries, derived tables and join builds included —
// moves DefaultBatchSize rows per pull, so a block without a breaker ships
// its first batch after one scan batch per morsel worker and an abandoned stream
// stops its scan within a few batches; the stream re-cuts its output into
// exactly DefaultBatchSize-row frames (the last may be short), the frames a
// server ships.
func (e *Engine) ExecuteStream(q *ast.Query, params map[string]value.Value) (*ResultStream, error) {
	c := e.newCtx(q, params, DefaultBatchSize)
	if err := c.resolve(q); err != nil {
		return nil, err
	}
	it, err := c.open(q, nil)
	if err != nil {
		return nil, err
	}
	if e.batchSize <= 0 {
		it = &frameIterator{in: it, size: DefaultBatchSize}
	}
	return &ResultStream{cols: colNames(projectionCols(q)), ctx: c, it: it}, nil
}

// Cols returns the result's column names (available before any batch).
func (s *ResultStream) Cols() []string { return s.cols }

// Next returns the next non-empty batch of rows, or nil when the stream is
// exhausted. Rows are delivered in exactly the order Execute returns them.
func (s *ResultStream) Next() ([][]value.Value, error) {
	if s.done {
		return nil, nil
	}
	b, err := s.it.next()
	if err != nil || b == nil {
		s.Close()
		return nil, err
	}
	s.ctx.stats.RowsOut += int64(len(b))
	return b, nil
}

// Close releases the stream early (for example when the consumer has
// shipped enough rows). It is idempotent and safe after exhaustion.
func (s *ResultStream) Close() {
	if !s.done {
		s.done = true
		s.it.close()
	}
}

// Stats returns a snapshot of the execution statistics accumulated so far:
// scan counters grow batch by batch, so a snapshot taken after a batch
// counts the work done before that batch could ship (how pipelining is
// judged). After the stream is exhausted the snapshot equals the Stats
// Execute reports for the same query.
func (s *ResultStream) Stats() Stats { return *s.ctx.stats }
