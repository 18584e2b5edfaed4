package join

import (
	"fmt"
	"sort"

	"repro/internal/mr"
	"repro/internal/relation"
)

// Shares is the Afrati–Ullman Shares algorithm [1] configured for a
// query: each attribute a receives a share b_a ≥ 1, the reducers form a
// grid of p = Π b_a cells, and a tuple of relation R is sent to every cell
// that agrees with the tuple's hashed values on R's attributes (so it is
// replicated p / Π_{a ∈ attrs(R)} b_a times). Every potential join result
// hashes to exactly one cell, which both guarantees coverage and makes
// output production exactly-once.
type Shares struct {
	Query  []*relation.Relation
	H      Hypergraph
	Share  []int // per variable of H.Vars, each ≥ 1
	stride []int // mixed-radix strides for cell ids
}

// NewShares validates a share vector for a query.
func NewShares(query []*relation.Relation, share []int) (*Shares, error) {
	h := FromQuery(query)
	if len(share) != h.NumVars() {
		return nil, fmt.Errorf("join: %d shares for %d variables", len(share), h.NumVars())
	}
	for i, b := range share {
		if b < 1 {
			return nil, fmt.Errorf("join: share for %s is %d, want >= 1", h.Vars[i], b)
		}
	}
	s := &Shares{Query: query, H: h, Share: share}
	s.stride = make([]int, len(share))
	st := 1
	for i := len(share) - 1; i >= 0; i-- {
		s.stride[i] = st
		st *= share[i]
	}
	return s, nil
}

// NumReducers is p = Π b_a.
func (s *Shares) NumReducers() int {
	p := 1
	for _, b := range s.Share {
		p *= b
	}
	return p
}

// hash maps an attribute value into its share range.
func (s *Shares) hash(varIdx, value int) int {
	if value < 0 {
		value = -value
	}
	return value % s.Share[varIdx]
}

// ReplicationOf returns how many cells one tuple of relation rel reaches.
func (s *Shares) ReplicationOf(rel int) int {
	rep := s.NumReducers()
	for _, v := range s.H.Edges[rel].Vars {
		rep /= s.Share[v]
	}
	return rep
}

// PredictedCommunication is Σ_R |R| · ReplicationOf(R): the total number
// of key-value pairs the map phase will emit.
func (s *Shares) PredictedCommunication() int64 {
	var total int64
	for i, r := range s.Query {
		total += int64(r.Size()) * int64(s.ReplicationOf(i))
	}
	return total
}

// cellsForTuple enumerates the cell ids receiving a tuple of relation rel.
func (s *Shares) cellsForTuple(rel int, t relation.Tuple) []int {
	fixed := make(map[int]int) // var index -> coordinate
	for pos, v := range s.H.Edges[rel].Vars {
		fixed[v] = s.hash(v, t[pos])
	}
	cells := []int{0}
	for v := range s.H.Vars {
		var next []int
		if c, ok := fixed[v]; ok {
			for _, base := range cells {
				next = append(next, base+c*s.stride[v])
			}
		} else {
			for _, base := range cells {
				for c := 0; c < s.Share[v]; c++ {
					next = append(next, base+c*s.stride[v])
				}
			}
		}
		cells = next
	}
	return cells
}

// tagged is one input record of the join job: a tuple and the index of
// the relation it belongs to.
type tagged struct {
	Rel int
	T   string // the tuple's relation.Tuple.Key (comparable for mr value grouping)
}

// Run executes the Shares algorithm as one MapReduce round and returns
// the join result (schema identical to relation.MultiJoin's) plus the
// round metrics. Each reducer joins its local fragments: a cell's
// fragment of R holds exactly the tuples agreeing with the cell on R's
// attributes, so the local join emits exactly the global results
// hashing to that cell. A value outside [0, relation.MaxValue) errs.
func (s *Shares) Run(cfg mr.Config) (*relation.Relation, mr.Metrics, error) {
	var inputs []tagged
	for ri, r := range s.Query {
		for _, t := range r.Tuples {
			for _, v := range t {
				if v < 0 || v >= relation.MaxValue {
					return nil, mr.Metrics{}, fmt.Errorf("join: %s tuple %v: value %d outside [0, %d)", r.Name, t, v, relation.MaxValue)
				}
			}
			inputs = append(inputs, tagged{Rel: ri, T: t.Key()})
		}
	}
	job := &mr.Job[tagged, int, tagged, string]{
		Name: "shares-join",
		Map: func(in tagged, emit func(int, tagged)) {
			t := relation.FromKey(in.T)
			for _, cell := range s.cellsForTuple(in.Rel, t) {
				emit(cell, in)
			}
		},
		Reduce: func(_ int, vs []tagged, emit func(string)) {
			frags := emptyCopies(s.Query)
			for _, v := range vs {
				frags[v.Rel].Tuples = append(frags[v.Rel].Tuples, relation.FromKey(v.T))
			}
			local := relation.MultiJoin(frags...)
			for _, t := range local.Tuples {
				emit(t.Key())
			}
		},
		Config: cfg,
	}
	outs, met, err := job.Run(inputs)
	if err != nil {
		return nil, met, err
	}
	schema := relation.MultiJoin(emptyCopies(s.Query)...).Attrs
	res := relation.New("shares_result", schema...)
	for _, o := range outs {
		res.Tuples = append(res.Tuples, relation.FromKey(o))
	}
	return res, met, nil
}

func emptyCopies(rels []*relation.Relation) []*relation.Relation {
	out := make([]*relation.Relation, len(rels))
	for i, r := range rels {
		out[i] = relation.New(r.Name, r.Attrs...)
	}
	return out
}

// OptimizeShares searches for the share vector minimizing predicted
// communication for a fixed number of reducers: p is rounded down to a
// power of two and the search covers every power-of-two share vector with
// Π b_a equal to that p. This reproduces the optimization that [1] solves
// with Lagrange multipliers, as an exact search over the discrete grid the
// experiments use. (The reducer count must be held fixed: communication
// alone is always minimized by the trivial p = 1.)
func OptimizeShares(query []*relation.Relation, p int) (*Shares, error) {
	if p < 1 {
		return nil, fmt.Errorf("join: need p >= 1, got %d", p)
	}
	h := FromQuery(query)
	m := h.NumVars()
	logP := 0
	for 1<<uint(logP+1) <= p {
		logP++
	}
	best := (*Shares)(nil)
	var bestComm int64
	exps := make([]int, m)
	var rec func(i, budget int)
	rec = func(i, budget int) {
		if i == m {
			if budget != 0 {
				return // product must be exactly 2^logP
			}
			share := make([]int, m)
			for j, e := range exps {
				share[j] = 1 << uint(e)
			}
			s, err := NewShares(query, share)
			if err != nil {
				return
			}
			comm := s.PredictedCommunication()
			if best == nil || comm < bestComm {
				best, bestComm = s, comm
			}
			return
		}
		for e := 0; e <= budget; e++ {
			exps[i] = e
			rec(i+1, budget-e)
		}
		exps[i] = 0
	}
	rec(0, logP)
	if best == nil {
		return nil, fmt.Errorf("join: no feasible share vector at p = %d", 1<<uint(logP))
	}
	return best, nil
}

// Describe renders the share vector sorted by attribute name.
func (s *Shares) Describe() string {
	type kv struct {
		a string
		b int
	}
	var list []kv
	for i, a := range s.H.Vars {
		list = append(list, kv{a, s.Share[i]})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].a < list[j].a })
	out := ""
	for _, e := range list {
		out += fmt.Sprintf("%s=%d ", e.a, e.b)
	}
	return out + fmt.Sprintf("(p=%d)", s.NumReducers())
}
