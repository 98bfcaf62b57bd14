package monomi

// Regression tests for the error-wrapping contract the wraperr analyzer
// (internal/lint) enforces statically: the typed sentinels the storage and
// transport layers export must survive every fmt.Errorf wrap between where
// they originate and where the application finally calls errors.Is/As —
// a single %v anywhere in the chain would silently break these matches.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/transport"
)

// TestCorruptSegmentSurvivesClientStack corrupts a disk-backed encrypted
// segment under a live System and checks the failure surfaces at the top
// of the client stack — System.Query, through engine, server, and client
// wrapping — still errors.Is-matchable as storage.ErrCorruptSegment.
// diskOrdersSystem encrypts a 300-row table onto 512-byte disk pages behind
// a ~2-page block cache, so every query reads the segment files.
func diskOrdersSystem(t *testing.T) (*System, Options) {
	t.Helper()
	db := NewDatabase()
	db.MustCreateTable("orders",
		Col("o_id", Int), Col("o_cust", String), Col("o_total", Int))
	for i := 0; i < 300; i++ {
		db.MustInsert("orders", i, fmt.Sprintf("cust-%d", i%7), 10+i%90)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	opts.Backend = "disk"
	opts.DataDir = t.TempDir()
	opts.PageBytes = 512
	opts.BlockCacheBytes = 1024
	sys, err := Encrypt(db, Workload{
		"totals": "SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust",
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, opts
}

func TestCorruptSegmentSurvivesClientStack(t *testing.T) {
	sys, opts := diskOrdersSystem(t)
	defer sys.Close()

	if _, err := sys.Query("SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust"); err != nil {
		t.Fatalf("pre-corruption query: %v", err)
	}

	// Smash a 64-byte run in the middle of every encrypted segment: far
	// past the header and metadata pages, inside scanned data pages.
	segs, err := filepath.Glob(filepath.Join(opts.DataDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", opts.DataDir, err)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(seg, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 64)
		for i := range junk {
			junk[i] = 0xff
		}
		if _, err := f.WriteAt(junk, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	_, err = sys.Query("SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust")
	if err == nil {
		t.Fatal("query over corrupted segments succeeded")
	}
	if !errors.Is(err, storage.ErrCorruptSegment) {
		t.Fatalf("top-level error no longer wraps ErrCorruptSegment: %v", err)
	}
	var se *storage.SegmentError
	if !errors.As(err, &se) {
		t.Fatalf("top-level error lost the *SegmentError detail: %v", err)
	}
}

// TestClosedBackendSurvivesClientStack: a query that reaches a disk table
// after System.Close fails as storage.ErrClosed at the top of the stack —
// not as a corruption report about segment files that are intact.
func TestClosedBackendSurvivesClientStack(t *testing.T) {
	sys, _ := diskOrdersSystem(t)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Query("SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust")
	if !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("query after Close: %v, want an error wrapping storage.ErrClosed", err)
	}
	if errors.Is(err, storage.ErrCorruptSegment) {
		t.Fatalf("query after Close blames a healthy segment: %v", err)
	}
}

// TestRejectErrorSurvivesClientStack drives a real admission-control
// rejection through the network client and checks it stays matchable —
// by monomi.IsRejected and by errors.As — after every layer's wrapping.
func TestRejectErrorSurvivesClientStack(t *testing.T) {
	sys := exampleSystem(t)
	defer sys.Close()
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := sys.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatalf("first connection: %v", err)
	}
	defer first.Close()

	_, err = sys.ConnectRemote(srv.Addr().String())
	if err == nil {
		t.Fatal("connection beyond MaxConns accepted")
	}
	if !IsRejected(err) {
		t.Fatalf("rejection not IsRejected-matchable: %v", err)
	}
	var re *transport.RejectError
	if !errors.As(err, &re) || re.Code != transport.CodeConnRejected {
		t.Fatalf("rejection lost its typed code: %v", err)
	}

	// The client layers wrap remote failures with %w ("client: remote x:
	// %w"); the sentinel must survive arbitrary depth of that discipline.
	wrapped := fmt.Errorf("client: remote scan: %w", fmt.Errorf("session: %w", err))
	if !IsRejected(wrapped) {
		t.Fatalf("IsRejected lost through %%w wrapping: %v", wrapped)
	}
}
