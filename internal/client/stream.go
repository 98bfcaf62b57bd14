package client

// The client's result consumption: one loop decodes every RemoteSQL result.
// The deployment picks the producer of its encrypted batches. A client over
// an in-process server takes the rows Execute drains as one batch; a client
// built by NewRemote reads the framed batches ExecuteStream writes into a
// pipe (the batch protocol of internal/wire), as the server frames them
// mid-scan. Either way each batch goes through decoder.decode — split across
// GOMAXPROCS workers once it holds parallelDecodeRows rows — on one clone
// per execution, taken from the part's pool of idle clones with its memos
// empty, so memos span the whole execution and rows, row order,
// encodings and the first error are the same on both hand-offs.
//
// Error/abandon handling: a server error poisons the pipe and surfaces at the
// next read; a client-side decode or frame error closes the pipe, which
// aborts the server's scan mid-stream. Either way the producer goroutine is
// joined before returning. A stream the frame reader finds corrupt fails as
// ErrMalformedResult, as a cell the plan cannot read does.
//
// Accounting: the server's engine.Stats arrive with the result (in process)
// or with the stream's end. WireBytes is what the paper's transfer model
// charges for the handed-over rows (value sizes + 4 B/row) in process, and
// the framed bytes (header, batch and end frames) remote. ClientTime sums the
// decode calls' elapsed time.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/ast"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wire"
)

// fetch executes one RemoteSQL — the whole query, text and encrypted
// parameter bindings, goes out on every execution — and decodes its result.
func (c *Client) fetch(q *ast.Query, params map[string]value.Value, dec *decoder, res *Result) ([][]value.Value, error) {
	if c.Srv != nil {
		resp, err := c.exec.Execute(q, params)
		if err != nil {
			return nil, err
		}
		c.charge(res, resp.Result.Stats, resp.WireBytes)
		batch := resp.Result.Rows
		return c.consume(dec, res, len(resp.Result.Cols), func() ([][]value.Value, error) {
			b := batch
			batch = nil
			return b, nil
		})
	}

	pr, pw := io.Pipe()
	var sstats *server.StreamStats
	var srvErr error
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		sstats, srvErr = c.exec.ExecuteStream(q, params, pw)
		pw.CloseWithError(srvErr) // nil = clean EOF after the end frame
	}()
	br, err := wire.NewBatchReader(pr)
	read := err != nil // the error, if any, came off the pipe
	var rows [][]value.Value
	if err == nil {
		rows, err = c.consume(dec, res, len(br.Cols()), func() ([][]value.Value, error) {
			b, err := br.Next()
			read = err != nil
			return b, err
		})
	}
	if err != nil {
		pr.CloseWithError(err) // aborts a server still writing
	}
	<-srvDone
	if srvErr != nil && (err == nil || read) {
		err = srvErr // the error behind a poisoned pipe
	}
	if err != nil {
		return nil, malformedStream(err)
	}
	c.charge(res, sstats.Stats, sstats.WireBytes)
	return rows, nil
}

// malformedStream classes a result stream the wire reader rejected as
// corrupt — truncated, or framed in a way no writer emits — as a malformed
// remote result, like a cell the plan cannot interpret. Any other error, a
// transport failure among them, passes through.
func malformedStream(err error) error {
	if errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, ErrMalformedResult) {
		return fmt.Errorf("%w: %w", ErrMalformedResult, err)
	}
	return err
}

// consume decodes every batch next yields, in order, until next returns no
// rows or an error, on a clone of dec (and its peers) taken from dec's pool
// and returned to it. cols is the result's width. A result of several batches
// is joined into one slice of its final length.
func (c *Client) consume(dec *decoder, res *Result, cols int, next func() ([][]value.Value, error)) ([][]value.Value, error) {
	if cols != len(dec.cols) {
		return nil, fmt.Errorf("server returned %d columns, plan expects %d", cols, len(dec.cols))
	}
	d, workers := dec.acquire(), runtime.GOMAXPROCS(0)
	defer dec.release(d)
	batches, total := make([][][]value.Value, 0, 4), 0
	for {
		batch, err := next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		start := time.Now()
		out, n, err := d.decode(batch, workers)
		res.ClientTime += time.Since(start)
		res.Decrypts += n
		if err != nil {
			return nil, err
		}
		batches = append(batches, out)
		total += len(out)
	}
	switch len(batches) {
	case 0:
		return nil, nil
	case 1:
		return batches[0], nil
	}
	rows := make([][]value.Value, 0, total)
	for _, b := range batches {
		rows = append(rows, b...)
	}
	return rows, nil
}
