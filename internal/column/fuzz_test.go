package column

import (
	"sort"
	"testing"

	"casper/internal/costmodel"
)

// FuzzColumnOps drives a partitioned column with an arbitrary byte-encoded
// operation sequence and checks the structural invariants (Validate after
// every op, which includes every partition's maintained sum) plus multiset
// preservation against a reference. Run with `go test -fuzz=FuzzColumnOps`;
// the seed corpus executes on every ordinary `go test`.
func FuzzColumnOps(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 2, 30, 3, 40, 4, 50})
	f.Add([]byte{2, 200, 2, 100, 3, 200, 4, 100, 5, 1, 0, 0})
	f.Add([]byte{1, 7, 1, 7, 3, 7, 3, 7, 2, 7})

	f.Fuzz(func(t *testing.T, program []byte) {
		keys := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
		for _, mode := range []Mode{Dense, Ghost} {
			ghosts := []int{0, 0, 0}
			if mode == Ghost {
				ghosts = []int{1, 1, 1}
			}
			c, err := NewFromSorted(keys, Config{
				Layout:      costmodel.Layout{Sizes: []int{2, 1, 3}},
				BlockValues: 2,
				Ghosts:      ghosts,
				Mode:        mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := make(map[int64]int)
			for _, k := range keys {
				ref[k]++
			}

			for i := 0; i+1 < len(program); i += 2 {
				op, arg := program[i]%6, int64(program[i+1])
				switch op {
				case 0:
					want := ref[arg]
					if got := c.PointQuery(arg); got != want {
						t.Fatalf("PointQuery(%d) = %d, want %d", arg, got, want)
					}
				case 1:
					c.Insert(arg)
					ref[arg]++
				case 2:
					err := c.Delete(arg)
					if (err == nil) != (ref[arg] > 0) {
						t.Fatalf("Delete(%d) = %v with refcount %d", arg, err, ref[arg])
					}
					if err == nil {
						ref[arg]--
					}
				case 3:
					newV := arg + 3
					_, err := c.Update(arg, newV)
					if (err == nil) != (ref[arg] > 0) {
						t.Fatalf("Update(%d) = %v with refcount %d", arg, err, ref[arg])
					}
					if err == nil {
						ref[arg]--
						ref[newV]++
					}
				case 4:
					lo, hi := arg-16, arg+16
					want, wantSum := 0, int64(0)
					for k, n := range ref {
						if k >= lo && k <= hi {
							want += n
							wantSum += k * int64(n)
						}
					}
					if got := c.RangeCount(lo, hi); got != want {
						t.Fatalf("RangeCount(%d,%d) = %d, want %d", lo, hi, got, want)
					}
					if got := c.RangeSum(lo, hi); got != wantSum {
						t.Fatalf("RangeSum(%d,%d) = %d, want %d", lo, hi, got, wantSum)
					}
				case 5:
					c.RefreshZonemaps()
				}
				if err := c.Validate(); err != nil {
					t.Fatalf("mode %v after op %d (%d %d): %v", mode, i/2, op, arg, err)
				}
			}
			// Multiset comparison.
			snap := c.SortedSnapshot()
			var want []int64
			for k, n := range ref {
				for j := 0; j < n; j++ {
					want = append(want, k)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if len(snap) != len(want) {
				t.Fatalf("size %d, want %d", len(snap), len(want))
			}
			for i := range snap {
				if snap[i] != want[i] {
					t.Fatalf("multiset diverges at %d: %d vs %d", i, snap[i], want[i])
				}
			}
		}
	})
}
