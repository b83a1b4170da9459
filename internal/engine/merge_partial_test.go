package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// This file is the partial-shard property suite for Result.Merge: the
// cluster coordinator merges whatever subset of shard partials survived a
// fan-out, in whatever order responses arrived, so Merge must be
// order-independent and must never over-count when a shard is absent. The
// measures are integer-valued so every float sum is exact and permutation
// merges can be compared bit-for-bit.

// partialFixture holds one striped dataset: per-stripe rewrite partials
// (small-group branch + an overall branch without the groups it owns, i.e.
// the same UNION ALL algebra the planner emits) plus the stripes' raw row
// sets so a subset can be re-executed exactly for comparison.
type partialFixture struct {
	db         *Database
	query      *Query
	stripeRows [][]int   // fact-row indices per stripe
	partials   []*Result // per-stripe merged rewrite answer at sampling rate 1
}

// buildPartialFixture synthesises a skewed category column (a few heavy
// hitters plus rare singletons, the regime small-group sampling exists for),
// stripes the fact rows into `stripes` contiguous ranges, and computes each
// stripe's partial answer the way a shard would: an exact small-group branch
// over the rare rows merged with an overall branch over the other rows, so a
// row can never be counted by both branches.
func buildPartialFixture(t *testing.T, stripes int) *partialFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cat := NewColumn("cat", String)
	qty := NewColumn("qty", Int)
	fact := NewTable("sales", cat, qty)
	const rows = 600
	for i := 0; i < rows; i++ {
		var c string
		switch r := rng.Intn(100); {
		case r < 55:
			c = "alpha"
		case r < 85:
			c = "beta"
		case r < 95:
			c = "gamma"
		default:
			c = fmt.Sprintf("rare-%d", rng.Intn(12))
		}
		fact.AppendRow(StringVal(c), IntVal(int64(1+rng.Intn(9))))
	}
	db := MustNewDatabase("sales", fact)
	q := &Query{
		GroupBy: []string{"cat"},
		Aggs:    []Aggregate{{Kind: Count}, {Kind: Sum, Col: "qty"}},
	}

	// Rare rows (categories under 20 occurrences) belong to the small-group
	// family; the overall branch gives their groups up.
	counts := map[string]int{}
	catAcc, err := db.Accessor("cat")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		counts[catAcc.Value(i).S]++
	}
	rare := func(i int) bool { return counts[catAcc.Value(i).S] < 20 }

	fx := &partialFixture{db: db, query: q}
	for s := 0; s < stripes; s++ {
		lo, hi := s*rows/stripes, (s+1)*rows/stripes
		var all, rareRows, commonRows []int
		for i := lo; i < hi; i++ {
			all = append(all, i)
			if rare(i) {
				rareRows = append(rareRows, i)
			} else {
				commonRows = append(commonRows, i)
			}
		}
		fx.stripeRows = append(fx.stripeRows, all)

		overall := db.FactSlice(fmt.Sprintf("overall_%d", s), commonRows, nil)
		small := db.FactSlice(fmt.Sprintf("small_%d", s), rareRows, nil)

		part, err := ExecuteCtx(context.Background(), small, q, ExecOptions{MarkExact: true})
		if err != nil {
			t.Fatal(err)
		}
		rest, err := ExecuteCtx(context.Background(), overall, q, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := part.Merge(rest); err != nil {
			t.Fatal(err)
		}
		fx.partials = append(fx.partials, part)
	}
	return fx
}

// exactOver runs the query exactly over just the given stripes' rows.
func (fx *partialFixture) exactOver(t *testing.T, subset []int) *Result {
	t.Helper()
	var rows []int
	for _, s := range subset {
		rows = append(rows, fx.stripeRows[s]...)
	}
	res, err := ExecuteCtx(context.Background(), fx.db.FactSlice("subset", rows, nil), fx.query, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mergeSubset merges the partials of the given stripes, in the given order,
// round-tripping each through the JSON wire format first — the same path a
// coordinator takes with shard responses.
func (fx *partialFixture) mergeSubset(t *testing.T, order []int) *Result {
	t.Helper()
	acc := NewResult(fx.query.GroupBy, fx.query.Aggs)
	for _, s := range order {
		raw, err := json.Marshal(fx.partials[s].Wire())
		if err != nil {
			t.Fatal(err)
		}
		var w ResultWire
		if err := json.Unmarshal(raw, &w); err != nil {
			t.Fatal(err)
		}
		part, err := ResultFromWire(&w)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// sameResult compares two results for exact equality of groups, values and
// exactness flags (measures are integers, so no tolerance is needed).
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.NumGroups() != want.NumGroups() {
		t.Fatalf("%s: %d groups, want %d", label, got.NumGroups(), want.NumGroups())
	}
	for _, k := range want.Keys() {
		wg, gg := want.Group(k), got.Group(k)
		if gg == nil {
			t.Fatalf("%s: group %q missing", label, k)
		}
		for i := range wg.Vals {
			if gg.Vals[i] != wg.Vals[i] {
				t.Errorf("%s: group %q agg %d = %v, want %v", label, k, i, gg.Vals[i], wg.Vals[i])
			}
		}
		if gg.RawRows != wg.RawRows {
			t.Errorf("%s: group %q rawRows = %d, want %d", label, k, gg.RawRows, wg.RawRows)
		}
	}
}

// TestMergePartialSubsetsNeverOverCount checks, for every non-empty subset
// of stripes, that merging just those partials equals an exact scan over
// just those stripes' rows: an absent shard removes exactly its contribution
// and the branch algebra never counts a surviving row twice.
func TestMergePartialSubsetsNeverOverCount(t *testing.T) {
	const stripes = 5
	fx := buildPartialFixture(t, stripes)
	for bits := 1; bits < 1<<stripes; bits++ {
		var subset []int
		for s := 0; s < stripes; s++ {
			if bits&(1<<s) != 0 {
				subset = append(subset, s)
			}
		}
		got := fx.mergeSubset(t, subset)
		want := fx.exactOver(t, subset)
		sameResult(t, fmt.Sprintf("subset %b", bits), got, want)
	}
}

// TestMergePartialOrderIndependence merges one subset under many random
// permutations; since the measures are integer-valued every permutation must
// be bit-identical, including all raw accumulators.
func TestMergePartialOrderIndependence(t *testing.T) {
	const stripes = 6
	fx := buildPartialFixture(t, stripes)
	subset := []int{0, 2, 3, 5}
	ref := fx.mergeSubset(t, subset)
	refJSON, err := json.Marshal(ref.Wire())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		perm := append([]int(nil), subset...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got := fx.mergeSubset(t, perm)
		gotJSON, err := json.Marshal(got.Wire())
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(refJSON) {
			t.Fatalf("merge order %v differs from %v:\n%s\nvs\n%s", perm, subset, gotJSON, refJSON)
		}
	}
}

// TestMergePartialExactFlagSurvivesAbsence: a group answered exactly by every
// present shard stays exact when a shard that never saw the group is absent,
// and a group fed by both branches is not exact.
func TestMergePartialExactFlagSurvivesAbsence(t *testing.T) {
	fx := buildPartialFixture(t, 4)
	full := fx.mergeSubset(t, []int{0, 1, 2, 3})
	sawExact, sawEstimated := false, false
	for _, k := range full.Keys() {
		if full.Group(k).Exact {
			sawExact = true
		} else {
			sawEstimated = true
		}
	}
	if !sawExact || !sawEstimated {
		t.Fatalf("fixture should produce both exact and estimated groups (exact=%v estimated=%v)",
			sawExact, sawEstimated)
	}
	partial := fx.mergeSubset(t, []int{1, 3})
	for _, k := range partial.Keys() {
		g := partial.Group(k)
		if !g.Exact {
			continue
		}
		for _, s := range []int{1, 3} {
			if pg := fx.partials[s].Group(k); pg != nil && !pg.Exact {
				t.Errorf("group %q exact after merge but estimated in stripe %d", k, s)
			}
		}
	}
}
