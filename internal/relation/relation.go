// Package relation provides the relational substrate for the join
// problems of Examples 2.1/2.4 and Section 5.5: named relations over
// finite integer domains, serial hash joins as correctness baselines, and
// generators for the chain and star query workloads the paper analyzes.
package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Tuple is one row; values are drawn from finite integer domains.
type Tuple []int

// Relation is a named relation with an attribute schema.
type Relation struct {
	Name   string
	Attrs  []string
	Tuples []Tuple
}

// New creates an empty relation with the given schema.
func New(name string, attrs ...string) *Relation {
	return &Relation{Name: name, Attrs: attrs}
}

// Size is the number of tuples.
func (r *Relation) Size() int { return len(r.Tuples) }

// Add appends a tuple; it panics if the arity is wrong (programmer error).
func (r *Relation) Add(vals ...int) {
	if len(vals) != len(r.Attrs) {
		panic(fmt.Sprintf("relation %s: tuple arity %d, want %d", r.Name, len(vals), len(r.Attrs)))
	}
	t := make(Tuple, len(vals))
	copy(t, vals)
	r.Tuples = append(r.Tuples, t)
}

// MaxValue bounds the values a Key holds: three bytes each.
const MaxValue = 1 << 24

// Key packs t, every value in [0, MaxValue), into a comparable string
// (FromKey unpacks it): the join and sample-graph runners' records.
func (t Tuple) Key() string {
	b := make([]byte, 0, len(t)*3)
	for _, v := range t {
		b = append(b, byte(v>>16), byte(v>>8), byte(v))
	}
	return string(b)
}

// FromKey is the tuple a Key packed.
func FromKey(s string) Tuple {
	t := make(Tuple, len(s)/3)
	for i := range t {
		t[i] = int(s[3*i])<<16 | int(s[3*i+1])<<8 | int(s[3*i+2])
	}
	return t
}

// AttrIndex returns the position of attribute a, or -1.
func (r *Relation) AttrIndex(a string) int {
	for i, x := range r.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// String renders the schema.
func (r *Relation) String() string {
	return fmt.Sprintf("%s(%s)[%d tuples]", r.Name, strings.Join(r.Attrs, ","), len(r.Tuples))
}

// Full returns the relation holding every tuple over domain {0..n-1}^arity
// — the paper's "all possible inputs present" instance.
func Full(name string, n int, attrs ...string) *Relation {
	r := New(name, attrs...)
	arity := len(attrs)
	t := make([]int, arity)
	var rec func(i int)
	rec = func(i int) {
		if i == arity {
			r.Add(t...)
			return
		}
		for v := 0; v < n; v++ {
			t[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return r
}

// Random returns a relation with size distinct random tuples over domain
// {0..n-1}^arity.
func Random(name string, n, size int, rng *rand.Rand, attrs ...string) *Relation {
	r := New(name, attrs...)
	arity := len(attrs)
	max := 1
	for i := 0; i < arity; i++ {
		max *= n
		if max > 1<<30 {
			break
		}
	}
	if size > max {
		size = max
	}
	seen := make(map[string]bool, size)
	for len(r.Tuples) < size {
		t := make(Tuple, arity)
		for i := range t {
			t[i] = rng.Intn(n)
		}
		k := fmt.Sprint([]int(t))
		if seen[k] {
			continue
		}
		seen[k] = true
		r.Tuples = append(r.Tuples, t)
	}
	return r
}

// NaturalJoin computes the natural join of two relations on their shared
// attribute names with a hash join; the output schema is r's attributes
// followed by s's non-shared attributes. It is the serial baseline for the
// distributed joins.
func NaturalJoin(r, s *Relation) *Relation {
	var shared [][2]int // (index in r, index in s)
	var sExtra []int
	for j, a := range s.Attrs {
		if i := r.AttrIndex(a); i >= 0 {
			shared = append(shared, [2]int{i, j})
		} else {
			sExtra = append(sExtra, j)
		}
	}
	attrs := append([]string{}, r.Attrs...)
	for _, j := range sExtra {
		attrs = append(attrs, s.Attrs[j])
	}
	out := New(r.Name+"_"+s.Name, attrs...)

	// Build hash table on s keyed by the shared attributes.
	index := make(map[string][]Tuple)
	keyOf := func(t Tuple, side int) string {
		var b strings.Builder
		for _, p := range shared {
			fmt.Fprintf(&b, "%d,", t[p[side]])
		}
		return b.String()
	}
	for _, t := range s.Tuples {
		k := keyOf(t, 1)
		index[k] = append(index[k], t)
	}
	for _, tr := range r.Tuples {
		for _, ts := range index[keyOf(tr, 0)] {
			row := make(Tuple, 0, len(attrs))
			row = append(row, tr...)
			for _, j := range sExtra {
				row = append(row, ts[j])
			}
			out.Tuples = append(out.Tuples, row)
		}
	}
	return out
}

// MultiJoin folds NaturalJoin over a list of relations, left to right.
func MultiJoin(rels ...*Relation) *Relation {
	if len(rels) == 0 {
		return New("empty")
	}
	acc := rels[0]
	for _, r := range rels[1:] {
		acc = NaturalJoin(acc, r)
	}
	return acc
}

// Equal reports whether two relations hold the same multiset of tuples;
// schemas must match exactly.
func Equal(a, b *Relation) bool {
	if !slices.Equal(a.Attrs, b.Attrs) || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	sorted := func(r *Relation) []Tuple {
		return slices.SortedFunc(slices.Values(r.Tuples), slices.Compare[Tuple])
	}
	return slices.EqualFunc(sorted(a), sorted(b), slices.Equal[Tuple])
}

// FullChain builds the chain query with every relation complete (n²
// tuples), the paper's all-inputs-present instance.
func FullChain(numRels, n int) []*Relation {
	rels := make([]*Relation, numRels)
	for i := 0; i < numRels; i++ {
		rels[i] = Full(fmt.Sprintf("R%d", i+1), n,
			fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", i+1))
	}
	return rels
}

// Star builds a star query: a fact table F(A1..AN) with factSize tuples
// and N dimension tables Di(Ai, Bi) with dimSize tuples each, over domain
// {0..n-1}. Dimension tables pairwise share no attributes, as Section
// 5.5.2 assumes.
func Star(numDims, n, factSize, dimSize int, rng *rand.Rand) (fact *Relation, dims []*Relation) {
	attrs := make([]string, numDims)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i+1)
	}
	fact = Random("F", n, factSize, rng, attrs...)
	dims = make([]*Relation, numDims)
	for i := 0; i < numDims; i++ {
		dims[i] = Random(fmt.Sprintf("D%d", i+1), n, dimSize, rng,
			fmt.Sprintf("A%d", i+1), fmt.Sprintf("B%d", i+1))
	}
	return fact, dims
}
