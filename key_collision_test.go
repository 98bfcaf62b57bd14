package monomi

import (
	"fmt"
	"strings"
	"testing"
)

// TestKeyCollisionFacade: two rows whose string pairs shared one composite
// key when every component's key was followed by a 0 byte — ("a\x00\x03b",
// "c") and ("a", "b\x00\x03c") — stay apart under grouping, DISTINCT, a
// two-key join and correlated EXISTS and IN, on the plaintext twin and
// encrypted, in process and over a remote connection.
func TestKeyCollisionFacade(t *testing.T) {
	db := NewDatabase()
	db.MustCreateTable("t", Col("id", Int), Col("a", String), Col("b", String))
	db.MustInsert("t", 1, "a\x00\x03b", "c")
	db.MustInsert("t", 2, "a", "b\x00\x03c")
	db.MustCreateTable("u", Col("x", String), Col("y", String), Col("v", Int))
	db.MustInsert("u", "a\x00\x03b", "c", 100)
	cases := []struct{ sql, want string }{
		{"SELECT a, b, COUNT(*) FROM t GROUP BY a, b ORDER BY a",
			`"a"|"b\x00\x03c"|"1"` + "\n" + `"a\x00\x03b"|"c"|"1"`},
		{"SELECT DISTINCT a, b FROM t ORDER BY a",
			`"a"|"b\x00\x03c"` + "\n" + `"a\x00\x03b"|"c"`},
		{"SELECT id, v FROM t, u WHERE a = x AND b = y", `"1"|"100"`},
		{"SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE x = a AND y = b) ORDER BY id", `"1"`},
		{"SELECT id FROM t WHERE b IN (SELECT y FROM u WHERE x = a) ORDER BY id", `"1"`},
	}
	w := Workload{}
	for i, c := range cases {
		w[fmt.Sprint("q", i)] = c.sql
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
	render := func(rows *Rows) string {
		out := make([]string, len(rows.Data))
		for i, row := range rows.Data {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = fmt.Sprintf("%q", fmt.Sprint(v))
			}
			out[i] = strings.Join(cells, "|")
		}
		return strings.Join(out, "\n")
	}
	for _, c := range cases {
		for name, query := range map[string]func(string) (*Rows, error){
			"plaintext": sys.QueryPlaintext, "in process": sys.Query, "remote": remote.Query,
		} {
			rows, err := query(c.sql)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.sql, err)
			}
			if got := render(rows); got != c.want {
				t.Errorf("%s %s:\n got: %s\nwant: %s", name, c.sql, got, c.want)
			}
		}
	}
}
