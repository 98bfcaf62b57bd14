package client

// The remote client's result consumption: the client half of the end-to-end
// pipeline. runRemoteStreamed connects the executor's ExecuteStream to the
// part's decoder through a pipe carrying the framed batch protocol of
// internal/wire: the server frames encrypted batches mid-scan, a reader
// goroutine parses frames as they arrive, and Parallelism workers decode
// whole batches concurrently, each with its own copy of the decoder the
// in-process hand-off runs over its whole result; the caller merges their
// output in batch order — so rows, row order, and encodings are identical to
// what an in-process client produces.
//
// Error/abandon handling is symmetric: a server error poisons the pipe and
// surfaces at the reader; a client-side decode error closes the pipe,
// which aborts the server's scan mid-stream. Either way every goroutine is
// joined before returning.
//
// Accounting: the server's engine.Stats arrive with the stream's end, WireBytes
// counts the framed bytes (header, batch and end frames — more than the
// in-process hand-off's value sizes + 4 B/row for the same rows), and
// ClientTime sums the workers' measured decode time (CPU spent, not
// elapsed: wall-clock overlap with the server's scan is the point of the
// pipeline). Decrypts may differ slightly from the in-process hand-off: the
// two split a result into decode ranges differently, and concurrent workers
// can race to decrypt the same repeated ciphertext before one of them has
// cached it. The decrypted values are identical either way.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wire"
)

// parallelism resolves the client-side worker knob (< 1 = GOMAXPROCS).
func (c *Client) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// streamBatch is one batch on its way through the decode workers: encrypted
// rows in, plaintext rows (or the error that stopped them) out once done is
// closed, with the decryptions and time its worker spent.
type streamBatch struct {
	rows     [][]value.Value
	decrypts int64
	took     time.Duration
	err      error
	done     chan struct{}
}

// runRemoteStreamed executes one RemoteSQL on a remote-built client: the
// whole query — text and, on the template fast path (ec != nil), the part's
// encrypted parameter bindings — goes out on every execution.
func (c *Client) runRemoteStreamed(part *planner.RemotePart, dec *decoder, res *Result, ec *execCtx) ([][]value.Value, error) {
	q := c.resolveHomGroups(part.Query)
	return c.consumeStream(part, dec, res, func(w io.Writer) (*server.StreamStats, error) {
		return c.exec.ExecuteStream(q, ec.encParams(), w)
	})
}

// consumeStream runs produce against a pipe and decodes the framed batches
// it writes.
func (c *Client) consumeStream(part *planner.RemotePart, dec *decoder, res *Result,
	produce func(io.Writer) (*server.StreamStats, error)) ([][]value.Value, error) {
	pr, pw := io.Pipe()

	// Producer: the untrusted server frames batches into the pipe as its
	// scan proceeds.
	var sstats *server.StreamStats
	var srvErr error
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		sstats, srvErr = produce(pw)
		pw.CloseWithError(srvErr) // nil = clean EOF after the end frame
	}()

	fail := func(err error) error {
		pr.CloseWithError(err)
		<-srvDone
		if srvErr != nil {
			return srvErr
		}
		return err
	}

	br, err := wire.NewBatchReader(pr)
	if err != nil {
		return nil, fail(err)
	}
	if len(br.Cols()) != len(part.Outputs) {
		return nil, fail(fmt.Errorf("stream has %d columns, plan expects %d",
			len(br.Cols()), len(part.Outputs)))
	}

	// Decode workers: each decodes whole batches with its own copy of the
	// part's decoder (the caches underneath are concurrency-safe).
	workers := c.parallelism()
	jobs := make(chan *streamBatch, workers)
	ordered := make(chan *streamBatch, 2*workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := dec.clone()
			for b := range jobs {
				t0 := time.Now()
				b.rows, b.decrypts, b.err = d.decode(b.rows, 1)
				b.took = time.Since(t0)
				close(b.done)
			}
		}()
	}

	// Reader: pulls frames off the wire in arrival order, queueing each
	// batch for the merge below as well, so it sees batch order regardless
	// of which worker finishes first.
	readErr := make(chan error, 1)
	go func() {
		defer close(jobs)
		defer close(ordered)
		for {
			rows, err := br.Next()
			if err != nil || rows == nil {
				readErr <- err
				return
			}
			b := &streamBatch{rows: rows, done: make(chan struct{})}
			ordered <- b
			jobs <- b
		}
	}()

	// Merge: collect decoded batches in batch order. On a decode error,
	// poison the pipe (aborting the server scan) but keep draining so the
	// reader and every worker exit before we return.
	var rows [][]value.Value
	var decodeErr error
	var decodeTime time.Duration
	var decrypts int64
	for b := range ordered {
		<-b.done
		decodeTime += b.took
		decrypts += b.decrypts
		if decodeErr != nil {
			continue
		}
		if b.err != nil {
			decodeErr = b.err
			pr.CloseWithError(b.err)
			continue
		}
		rows = append(rows, b.rows...)
	}
	wg.Wait()
	rerr := <-readErr
	<-srvDone

	if decodeErr != nil {
		return nil, decodeErr
	}
	if srvErr != nil {
		return nil, srvErr
	}
	if rerr != nil {
		return nil, rerr
	}

	c.charge(res, sstats.Stats, sstats.WireBytes)
	res.ClientTime += decodeTime
	res.Decrypts += decrypts
	return rows, nil
}
