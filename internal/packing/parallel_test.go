package packing

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestHomSumParallelMatchesSequential checks that HomSum's sharded, batched
// ciphertext products at GOMAXPROCS 2 and 4 decrypt to the same sums, and
// encode to the same bytes, as its one-shard fold at GOMAXPROCS 1, over
// several match patterns (all rows, a sparse subset producing many
// partials, a dense subset producing many full packs: 400 rows of 8 per
// pack give up to 3 shards).
func TestHomSumParallelMatchesSequential(t *testing.T) {
	key := testKey(t)
	l, err := NewLayout([]Col{{Name: "a", Bits: 20}, {Name: "b", Bits: 16}}, 8, key.PlaintextBits(), true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const numRows = 400
	rows := make([][]int64, numRows)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(1 << 20), rng.Int63n(1 << 16)}
	}
	s, err := BuildStore("g", key, l, rows)
	if err != nil {
		t.Fatal(err)
	}

	patterns := map[string][]int{}
	all := make([]int, numRows)
	for i := range all {
		all[i] = i
	}
	patterns["all"] = all
	var sparse, dense []int
	for i := 0; i < numRows; i++ {
		if i%7 == 0 {
			sparse = append(sparse, i)
		}
		if i%97 != 0 {
			dense = append(dense, i)
		}
	}
	patterns["sparse"] = sparse
	patterns["dense"] = dense

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, ids := range patterns {
		runtime.GOMAXPROCS(1)
		seq, err := HomSum(s, ids)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		wantSums, _, err := ClientSums(key, l, seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		var expect [2]int64
		for _, id := range ids {
			expect[0] += rows[id][0]
			expect[1] += rows[id][1]
		}
		if wantSums[0] != expect[0] || wantSums[1] != expect[1] {
			t.Fatalf("%s: sequential sums %v, plaintext %v", name, wantSums, expect)
		}
		for _, par := range []int{2, 4} {
			runtime.GOMAXPROCS(par)
			res, err := HomSum(s, ids)
			if err != nil {
				t.Fatalf("%s par=%d: %v", name, par, err)
			}
			if res.MulOps != seq.MulOps {
				t.Errorf("%s par=%d: MulOps %d, sequential %d", name, par, res.MulOps, seq.MulOps)
			}
			if res.ReadSize != seq.ReadSize {
				t.Errorf("%s par=%d: ReadSize %d, sequential %d", name, par, res.ReadSize, seq.ReadSize)
			}
			if len(res.Partials) != len(seq.Partials) {
				t.Fatalf("%s par=%d: %d partials, sequential %d", name, par, len(res.Partials), len(seq.Partials))
			}
			sums, _, err := ClientSums(key, l, res, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sums[0] != wantSums[0] || sums[1] != wantSums[1] {
				t.Errorf("%s par=%d: sums %v, want %v", name, par, sums, wantSums)
			}
			// The wire encodings must agree byte for byte: pack visitation
			// order is deterministic and the folded product is identical.
			if string(res.Encode(s.CipherBytes())) != string(seq.Encode(s.CipherBytes())) {
				t.Errorf("%s par=%d: wire encoding diverges from sequential", name, par)
			}
		}
	}
}
