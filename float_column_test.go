package monomi

import (
	"strings"
	"testing"
)

// TestFloatColumn: a Float column is stored under RND (DET encrypts no
// float), and a sum, a grouped sum and maximum, a range filter, an equality
// filter and a sum of a product over it match plaintext in process and over
// a remote connection.
func TestFloatColumn(t *testing.T) {
	db := NewDatabase()
	db.MustCreateTable("t", Col("g", Int), Col("f", Float))
	for i, f := range []float64{0.5, 2.25, -1.5, 3, 1e20, 2.5} {
		db.MustInsert("t", i%2, f)
	}
	db.MustInsert("t", 1, nil)
	queries := []string{
		"SELECT SUM(f) FROM t",
		"SELECT g, SUM(f), MAX(f) FROM t GROUP BY g ORDER BY g",
		"SELECT g, f FROM t WHERE f > 2 ORDER BY f",
		// No scheme the designer may offer takes a float for equality or
		// for a precomputed product: both run on the client.
		"SELECT g FROM t WHERE f = 2.5",
		"SELECT SUM(f * 2) FROM t",
	}
	w := Workload{}
	for i, q := range queries {
		w[string(rune('a'+i))] = q
	}
	sys, err := Encrypt(db, w, diffOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := sys.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	for _, q := range queries {
		plain, err := sys.QueryPlaintext(q)
		if err != nil {
			t.Fatalf("plaintext %s: %v", q, err)
		}
		want := canonicalRows(t, plain.Data, true)
		for name, s := range map[string]*System{"in process": sys, "remote": remote} {
			res, err := s.Query(q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, q, err)
			}
			if got := canonicalRows(t, res.Data, true); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s %s:\n%v\nplaintext\n%v", name, q, got, want)
			}
		}
	}
}
