package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddAndSchema(t *testing.T) {
	r := New("R", "A", "B")
	r.Add(1, 2)
	r.Add(3, 4)
	if len(r.Attrs) != 2 || r.Size() != 2 {
		t.Errorf("arity=%d size=%d, want 2 and 2", len(r.Attrs), r.Size())
	}
	if r.AttrIndex("B") != 1 || r.AttrIndex("Z") != -1 {
		t.Error("AttrIndex misbehaves")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add with wrong arity should panic")
		}
	}()
	r.Add(1)
}

func TestFull(t *testing.T) {
	r := Full("R", 3, "A", "B")
	if r.Size() != 9 {
		t.Errorf("Full size = %d, want 9", r.Size())
	}
	seen := make(map[[2]int]bool)
	for _, tup := range r.Tuples {
		seen[[2]int{tup[0], tup[1]}] = true
	}
	if len(seen) != 9 {
		t.Errorf("Full has %d distinct tuples, want 9", len(seen))
	}
}

func TestRandomDistinctAndClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := Random("R", 4, 100, rng, "A", "B") // only 16 possible
	if r.Size() != 16 {
		t.Errorf("Random clamped size = %d, want 16", r.Size())
	}
	seen := make(map[[2]int]bool)
	for _, tup := range r.Tuples {
		k := [2]int{tup[0], tup[1]}
		if seen[k] {
			t.Fatalf("duplicate tuple %v", tup)
		}
		seen[k] = true
	}
}

func TestNaturalJoinExample21(t *testing.T) {
	// Example 2.1: R(A,B) ⋈ S(B,C).
	r := New("R", "A", "B")
	r.Add(1, 10)
	r.Add(2, 20)
	r.Add(3, 10)
	s := New("S", "B", "C")
	s.Add(10, 100)
	s.Add(10, 200)
	s.Add(30, 300)
	j := NaturalJoin(r, s)
	if len(j.Attrs) != 3 || j.Attrs[0] != "A" || j.Attrs[1] != "B" || j.Attrs[2] != "C" {
		t.Fatalf("schema = %v, want [A B C]", j.Attrs)
	}
	want := New("J", "A", "B", "C")
	want.Add(1, 10, 100)
	want.Add(1, 10, 200)
	want.Add(3, 10, 100)
	want.Add(3, 10, 200)
	if !Equal(j, want) {
		t.Errorf("join = %v, want %v", j.Tuples, want.Tuples)
	}
}

func TestNaturalJoinNoSharedAttrsIsCrossProduct(t *testing.T) {
	r := New("R", "A")
	r.Add(1)
	r.Add(2)
	s := New("S", "B")
	s.Add(10)
	s.Add(20)
	j := NaturalJoin(r, s)
	if j.Size() != 4 {
		t.Errorf("cross product size = %d, want 4", j.Size())
	}
}

func TestMultiJoinChain(t *testing.T) {
	rels := FullChain(3, 2) // full chain over domain {0,1}
	j := MultiJoin(rels...)
	// Full chain join: every assignment of A0..A3 ⇒ 2^4 = 16 tuples.
	if j.Size() != 16 {
		t.Errorf("full 3-chain join size = %d, want 16", j.Size())
	}
	if len(j.Attrs) != 4 {
		t.Errorf("join schema = %v, want 4 attributes", j.Attrs)
	}
}

func TestMultiJoinEmpty(t *testing.T) {
	j := MultiJoin()
	if j.Size() != 0 {
		t.Error("empty MultiJoin should be empty")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := New("R", "A")
	a.Add(1)
	b := New("R", "A")
	b.Add(2)
	if Equal(a, b) {
		t.Error("Equal(1-tuple vs different 1-tuple) = true")
	}
	c := New("R", "X")
	c.Add(1)
	if Equal(a, c) {
		t.Error("Equal must compare schemas")
	}
	d := New("R", "A")
	d.Add(1)
	if !Equal(a, d) {
		t.Error("Equal(same) = false")
	}
}

func TestEqualOrderInsensitive(t *testing.T) {
	a := New("R", "A", "B")
	a.Add(1, 2)
	a.Add(3, 4)
	b := New("R", "A", "B")
	b.Add(3, 4)
	b.Add(1, 2)
	if !Equal(a, b) {
		t.Error("Equal should ignore tuple order")
	}
	// Equal must not mutate its arguments' order.
	if a.Tuples[0][0] != 1 {
		t.Error("Equal mutated its argument")
	}
}

func TestStarGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fact, dims := Star(3, 8, 100, 20, rng)
	if len(fact.Attrs) != 3 {
		t.Errorf("fact arity = %d, want 3", len(fact.Attrs))
	}
	if len(dims) != 3 {
		t.Fatalf("dims = %d, want 3", len(dims))
	}
	for i, d := range dims {
		if d.Size() != 20 {
			t.Errorf("dim %d size = %d, want 20", i, d.Size())
		}
		if fact.AttrIndex(d.Attrs[0]) != i {
			t.Errorf("dim %d does not share attribute %s with fact", i, d.Attrs[0])
		}
		// Dimensions pairwise share nothing.
		for j := i + 1; j < len(dims); j++ {
			for _, a := range d.Attrs {
				if dims[j].AttrIndex(a) >= 0 {
					t.Errorf("dims %d and %d share attribute %s", i, j, a)
				}
			}
		}
	}
}

// Property: |R ⋈ S| on shared attribute B equals Σ_b count_R(b)·count_S(b).
func TestPropertyJoinSizeMatchesHistogram(t *testing.T) {
	f := func(seed int64, szR, szS uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Random("R", 5, int(szR%20)+1, rng, "A", "B")
		s := Random("S", 5, int(szS%20)+1, rng, "B", "C")
		j := NaturalJoin(r, s)
		histR := map[int]int{}
		histS := map[int]int{}
		for _, t := range r.Tuples {
			histR[t[1]]++
		}
		for _, t := range s.Tuples {
			histS[t[0]]++
		}
		want := 0
		for b, c := range histR {
			want += c * histS[b]
		}
		return j.Size() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: join is commutative up to schema/column reordering — sizes
// must match.
func TestPropertyJoinSizeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Random("R", 4, 10, rng, "A", "B")
		s := Random("S", 4, 10, rng, "B", "C")
		return NaturalJoin(r, s).Size() == NaturalJoin(s, r).Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
