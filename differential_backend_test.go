package monomi

import (
	"math/rand"
	"strings"
	"testing"
)

// Backend dimension of the differential grid: the same encrypted system
// built on the in-memory backend and on the disk backend (paged segment
// files behind a block cache far smaller than the tables) must produce
// byte-identical results to each other and to plaintext, in process and
// served. The backends share row-id assignment and feed the same morsel
// producers, so nothing above the storage seam may observe which one holds
// the rows — only the charged I/O (real page reads vs the resident-byte
// approximation) differs.

// TestDifferentialBackendInvariance runs the in-process grid over both
// backends.
func TestDifferentialBackendInvariance(t *testing.T) {
	mem := diffSystemBackend(t, "mem")
	disk := diffSystemBackend(t, "disk")
	t.Cleanup(func() { mem.Close(); disk.Close() })

	queries := genQueries(rand.New(rand.NewSource(diffSeed+6)), 12)
	queries = append(queries, genJoinQueries(rand.New(rand.NewSource(diffSeed+7)), 6)...)

	for _, q := range queries {
		plain, err := mem.QueryPlaintext(q.sql)
		if err != nil {
			t.Fatalf("plaintext %s: %v", q.sql, err)
		}
		m, err := mem.Query(q.sql)
		if err != nil {
			t.Fatalf("mem %s: %v", q.sql, err)
		}
		d, err := disk.Query(q.sql)
		if err != nil {
			t.Fatalf("disk %s: %v", q.sql, err)
		}
		want := canonicalRows(t, plain.Data, q.ordered)
		gm := canonicalRows(t, m.Data, q.ordered)
		gd := canonicalRows(t, d.Data, q.ordered)
		if strings.Join(gd, "\n") != strings.Join(gm, "\n") {
			t.Errorf("%s: disk diverges from mem:\n%v\nvs\n%v", q.sql, gd, gm)
		}
		if strings.Join(gd, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: disk diverges from plaintext:\n%v\nvs\n%v", q.sql, gd, want)
		}
	}

	// The disk grid must have actually paged: the block cache is smaller
	// than the encrypted tables, so full scans forced real reads.
	dst := disk.Stats()
	if dst.PageReads == 0 || dst.CacheMisses == 0 || dst.PageBytesRead == 0 {
		t.Fatalf("disk grid charged no physical reads: %+v", dst)
	}
	if hr := dst.CacheHitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("disk cache hit rate %v outside (0,1)", hr)
	}
	mst := mem.Stats()
	if mst.PageReads != 0 || mst.CacheMisses != 0 {
		t.Errorf("mem backend reported physical reads: %+v", mst)
	}
}

// TestDifferentialBackendServed is the deployment axis: the disk-backed
// system served over real TCP (transport sessions, wire codec, admission
// control), its client consuming the framed stream, must match the
// mem-backed system's in-process results — single-table, subquery and join
// shapes alike.
func TestDifferentialBackendServed(t *testing.T) {
	mem := diffSystemBackend(t, "mem")
	disk := diffSystemBackend(t, "disk")
	t.Cleanup(func() { mem.Close(); disk.Close() })

	srv, err := disk.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := disk.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	queries := genQueries(rand.New(rand.NewSource(diffSeed+8)), 10)
	queries = append(queries, genJoinQueries(rand.New(rand.NewSource(diffSeed+9)), 5)...)
	want := make([][]string, len(queries))
	for i, q := range queries {
		m, err := mem.Query(q.sql)
		if err != nil {
			t.Fatalf("mem %s: %v", q.sql, err)
		}
		want[i] = canonicalRows(t, m.Data, q.ordered)
	}
	for i, q := range queries {
		r, err := remote.Query(q.sql)
		if err != nil {
			t.Fatalf("served disk %s: %v", q.sql, err)
		}
		gr := canonicalRows(t, r.Data, q.ordered)
		if strings.Join(gr, "\n") != strings.Join(want[i], "\n") {
			t.Errorf("%s: served disk diverges from in-process mem:\n%v\nvs\n%v", q.sql, gr, want[i])
		}
	}
	if st := disk.Stats(); st.PageReads == 0 {
		t.Fatalf("served disk system charged no page reads: %+v", st)
	}
}
