package client

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/value"
)

// The decoder pool: a compiled part's executions decode on clones taken from
// its pool and handed back with their memos emptied. Whichever clone an
// execution gets, and whatever the clone decoded before, the execution's
// rows, decrypt count and first error are a fresh clone's.

// TestDecoderPoolAfterFailedDecode: an execution whose decode fails on a
// malformed cell in its last row — after every worker's memos have filled —
// leaves nothing behind. The next executions of the template, taking that
// clone back from the pool, return the rows and the decrypt count of the
// template's first execution. consumeSQL runs with peers (4 000 rows, 4
// distinct ciphertexts); the warm range shape on one worker.
func TestDecoderPoolAfterFailedDecode(t *testing.T) {
	for _, tc := range []struct {
		f      *fixture
		sql    string
		params map[string]value.Value
	}{
		{consumeFixture(t), consumeSQL, nil},
		{warmFixture(t), warmShapes[1].sql, warmShapes[1].params(3)},
	} {
		c := tc.f.client
		fresh, err := c.Query(tc.sql, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Decrypts == 0 {
			t.Fatalf("%s: no decrypts", tc.sql)
		}
		// Column 0 of the remote result is a DET ciphertext; a cell of the
		// other kind is malformed.
		bad := value.NewInt(7)
		if item := fresh.Plan.Remote.Outputs[0].Item; item != nil && item.CiphertextKind() == value.Int {
			bad = value.NewBytes([]byte{7})
		}
		for round := 0; round < 3; round++ {
			c.SetExecutor(&badExec{srv: c.Srv, bad: map[int]value.Value{len(fresh.Rows) - 1: bad}})
			if _, err := c.Query(tc.sql, tc.params); !errors.Is(err, ErrMalformedResult) {
				t.Fatalf("%s: malformed execution: %v, want ErrMalformedResult", tc.sql, err)
			}
			c.SetExecutor(c.Srv)
			got, err := c.Query(tc.sql, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			if got.Decrypts != fresh.Decrypts || !reflect.DeepEqual(got.Rows, fresh.Rows) {
				t.Fatalf("%s round %d: after a failed decode %d decrypts and %d rows, a fresh client %d and %d",
					tc.sql, round, got.Decrypts, len(got.Rows), fresh.Decrypts, len(fresh.Rows))
			}
		}
	}
}
