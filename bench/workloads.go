package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitstr"
	"repro/internal/graphs"
	"repro/internal/hamming"
	"repro/internal/matmul"
	"repro/internal/mr"
	"repro/internal/shuffle"
	"repro/internal/triangle"
)

// sizes fixes every workload's inputs; they are part of the workload
// names' definition (see README.md).
type sizes struct {
	HamB, HamC, HamBudget       int
	MatN, MatS, MatT, MatBudget int
	CenN, CenM, CenK, CenBudget int
}

var (
	// fullSizes are cut down from the issue's (b=20, n=384, 1600 nodes) so
	// that 114 driver runs with three set-ups each fit the run-time cap.
	fullSizes = sizes{
		HamB: 18, HamC: 3, HamBudget: 2048,
		MatN: 256, MatS: 16, MatT: 16, MatBudget: 16384,
		CenN: 1000, CenM: 100000, CenK: 8, CenBudget: 8192,
	}
	quickSizes = sizes{
		HamB: 12, HamC: 4, HamBudget: 64,
		MatN: 48, MatS: 8, MatT: 8, MatBudget: 256,
		CenN: 120, CenM: 1800, CenK: 4, CenBudget: 128,
	}
)

// workload is one named set of inputs and the configuration it runs under.
type workload struct {
	name  string
	why   string
	proc  bool // ProcMode: 2 worker processes, 8 partitions
	setup func(sz sizes, seed int64) (*instance, error)
}

// instance is a workload with its inputs generated and its serial
// reference answer computed.
type instance struct {
	desc   string // sizes actually used
	budget int    // mr.Config.MemoryBudget; 0 runs in memory
	// run executes the job; the harness times it.
	run func(cfg mr.Config) (any, []mr.RoundMetrics, error)
	// check compares a run's output with the reference and its r, q and
	// communication with the schema's prediction; each string is one
	// reason the repetition counts as a failed operation.
	check func(out any, rounds []mr.RoundMetrics) []string
	// bound is the paper's lower bound on r at the observed q, and the
	// observed r over it.
	bound func(rounds []mr.RoundMetrics) (rBound, rGap float64)
	// ladder replays the workload's round-1 pair stream through each
	// layer alone.
	ladder func(env *ladderEnv) error
}

var workloads = []workload{
	{
		name: "hamming_mem",
		why:  "in-memory Hamming Splitting: ingest, hashing, grouping, struct-key sort and allocation do all the work, so a disk-path change must show no change",
		setup: func(sz sizes, seed int64) (*instance, error) {
			return hammingInstance(sz, seed, 0, false)
		},
	},
	{
		name: "hamming_spill",
		why:  "same inputs far over a memory budget: seal, runfile write, compaction, k-way merge and batch decode of many small groups; minus hamming_mem it is the price of the disk path",
		setup: func(sz sizes, seed int64) (*instance, error) {
			return hammingInstance(sz, seed, sz.HamBudget, false)
		},
	},
	{
		name: "hamming_proc",
		proc: true,
		why:  "same inputs across 2 worker processes: the only workload crossing internal/proc (fork, unix-socket RPC, spool sections, its own section merge)",
		setup: func(sz sizes, seed int64) (*instance, error) {
			return hammingInstance(sz, seed, sz.HamBudget, true)
		},
	},
	{
		name:  "matmul2_spill",
		why:   "two-phase matrix multiply over budget: int keys on the codec fast path and wide value sections where bandwidth dominates, then a round of tiny groups and the pipeline hand-off",
		setup: matmulInstance,
	},
	{
		name:  "census_spill",
		why:   "three-round triangle census: user reduce and the straggler reducer set the time and rounds 2-3 combine at seal with almost no disk bytes, so shuffle and runfile changes predict no change",
		setup: censusInstance,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- Hamming distance 1, Splitting algorithm (Section 3.3) ----

// SplitKey identifies one Splitting reducer: the removed segment and the
// remaining bits.
type SplitKey struct {
	Group int
	Rest  uint64
}

// splittingJob is a copy of the job inside hamming.RunSplitting, built
// from the public bitstr functions: the family package does not register
// its job for ProcMode, and registration needs the job value.
func splittingJob(b, c int) *mr.Job[uint64, SplitKey, uint64, hamming.Pair] {
	return &mr.Job[uint64, SplitKey, uint64, hamming.Pair]{
		Name: fmt.Sprintf("bench-hamming-splitting(b=%d,c=%d)", b, c),
		Map: func(x uint64, emit func(SplitKey, uint64)) {
			for g := 0; g < c; g++ {
				emit(SplitKey{g, bitstr.RemoveSegment(x, g, c, b)}, x)
			}
		},
		Reduce: func(_ SplitKey, xs []uint64, emit func(hamming.Pair)) {
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			for i := 0; i < len(xs); i++ {
				for j := i + 1; j < len(xs); j++ {
					if bitstr.Distance(xs[i], xs[j]) == 1 {
						emit(hamming.Pair{X: xs[i], Y: xs[j]})
					}
				}
			}
		},
	}
}

// procJobs are registered in init, before main hands a worker process
// over to mr.MaybeProcWorker: driver and workers must hold the same jobs.
var procJobs = map[[2]int]*mr.Job[uint64, SplitKey, uint64, hamming.Pair]{}

func init() {
	for _, sz := range []sizes{fullSizes, quickSizes} {
		j := splittingJob(sz.HamB, sz.HamC)
		procJobs[[2]int{sz.HamB, sz.HamC}] = j
		mr.RegisterProc(j)
	}
}

// mix64 is the splitmix64 finalizer; pairChecksum sums it over the
// output pairs, so the checksum does not depend on output order.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func pairHash(x, y uint64) uint64 { return mix64(x<<32 ^ y) }

func pairChecksum(ps []hamming.Pair) uint64 {
	var sum uint64
	for _, p := range ps {
		sum += pairHash(p.X, p.Y)
	}
	return sum
}

func hammingInstance(sz sizes, seed int64, budget int, proc bool) (*instance, error) {
	b, c := sz.HamB, sz.HamC
	schema, err := hamming.NewSplittingSchema(b, c)
	if err != nil {
		return nil, err
	}
	// The inputs are all 2^b strings; the seed fixes their order, and so
	// which map task sees which string.
	inputs := make([]uint64, 1<<b)
	for i := range inputs {
		inputs[i] = uint64(i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(inputs), func(i, j int) {
		inputs[i], inputs[j] = inputs[j], inputs[i]
	})
	// Serial reference: every x and every clear bit of it is one output.
	var refCount int64
	var refSum uint64
	for x := uint64(0); x < 1<<b; x++ {
		for i := 0; i < b; i++ {
			if x&(1<<i) == 0 {
				refCount++
				refSum += pairHash(x, x|1<<i)
			}
		}
	}
	if want := int64(b) << (b - 1); refCount != want {
		return nil, fmt.Errorf("hamming reference has %d outputs, want b*2^(b-1) = %d", refCount, want)
	}
	job := procJobs[[2]int{b, c}]
	if proc && job == nil {
		return nil, fmt.Errorf("no ProcMode job registered for b=%d c=%d", b, c)
	}
	return &instance{
		desc:   fmt.Sprintf("b=%d c=%d inputs=%d pairs=%d reducers=%d q=%d outputs=%d budget=%d", b, c, len(inputs), c<<b, schema.NumReducers(), schema.ReducerSize(), refCount, budget),
		budget: budget,
		run: func(cfg mr.Config) (any, []mr.RoundMetrics, error) {
			var out []hamming.Pair
			var met mr.Metrics
			var err error
			if proc {
				j := *job
				j.Config = cfg
				out, met, err = j.Run(inputs)
			} else {
				out, met, err = hamming.RunSplitting(schema, inputs, cfg)
			}
			return out, []mr.RoundMetrics{{Name: "splitting", Metrics: met}}, err
		},
		check: func(out any, rounds []mr.RoundMetrics) []string {
			var bad []string
			ps := out.([]hamming.Pair)
			if int64(len(ps)) != refCount {
				bad = append(bad, fmt.Sprintf("%d outputs, reference has %d", len(ps), refCount))
			}
			if sum := pairChecksum(ps); sum != refSum {
				bad = append(bad, fmt.Sprintf("output checksum %x, reference %x", sum, refSum))
			}
			m := rounds[0].Metrics
			if m.PairsShuffled != int64(c)<<b {
				bad = append(bad, fmt.Sprintf("communication %d pairs, schema predicts %d", m.PairsShuffled, int64(c)<<b))
			}
			if r := m.ReplicationRate(); r != float64(c) {
				bad = append(bad, fmt.Sprintf("r = %v, schema predicts %d", r, c))
			}
			if q := m.MaxReducerInput; q != int64(schema.ReducerSize()) {
				bad = append(bad, fmt.Sprintf("q = %d, schema predicts %d", q, schema.ReducerSize()))
			}
			if lb := hamming.Recipe(b).LowerBound(float64(m.MaxReducerInput)); m.ReplicationRate() < lb {
				bad = append(bad, fmt.Sprintf("r = %v below the lower bound %v", m.ReplicationRate(), lb))
			}
			return bad
		},
		bound: func(rounds []mr.RoundMetrics) (float64, float64) {
			m := rounds[0].Metrics
			lb := hamming.Recipe(b).LowerBound(float64(m.MaxReducerInput))
			return lb, m.ReplicationRate() / lb
		},
		ladder: func(env *ladderEnv) error {
			job := splittingJob(b, c)
			pairs := make([]shuffle.Pair[SplitKey, uint64], 0, c<<b)
			emit := func(k SplitKey, v uint64) { pairs = append(pairs, shuffle.Pair[SplitKey, uint64]{Key: k, Value: v}) }
			for _, x := range inputs {
				job.Map(x, emit)
			}
			if err := runLadder(env, pairs); err != nil {
				return err
			}
			// The floor no engine change can move: the user functions
			// called directly with an emit that does nothing.
			sec, _ := env.tr.timed("hamming.map", env.root, func() error {
				for _, x := range inputs {
					job.Map(x, func(SplitKey, uint64) {})
				}
				return nil
			})
			env.out["hamming.map_pairs_s"] = float64(len(pairs)) / sec
			groups := make(map[SplitKey][]uint64)
			for _, p := range pairs {
				groups[p.Key] = append(groups[p.Key], p.Value)
			}
			sec, _ = env.tr.timed("hamming.reduce", env.root, func() error {
				for k, xs := range groups {
					job.Reduce(k, xs, func(hamming.Pair) {})
				}
				return nil
			})
			env.out["hamming.reduce_values_s"] = float64(len(pairs)) / sec
			return nil
		},
	}, nil
}

// ---- Two-phase matrix multiplication (Section 6.3) ----

// MatEntry mirrors matmul's unexported entry type (one matrix element
// tagged with its origin) for the ladder's stream: 32 bytes in memory.
type MatEntry struct {
	Mat      int8
	Row, Col int
	Val      float64
}

func matmulInstance(sz sizes, seed int64) (*instance, error) {
	n, s, t := sz.MatN, sz.MatS, sz.MatT
	schema, err := matmul.NewTwoPhaseSchema(n, s, t)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	x, y := matmul.Random(n, n, rng), matmul.Random(n, n, rng)
	ref := x.Mul(y)
	q := float64(schema.ReducerSize())
	p1, p2 := schema.PredictedPhase1Communication(), schema.PredictedPhase2Communication()
	return &instance{
		desc:   fmt.Sprintf("n=%d s=%d t=%d round1=%d pairs into %d reducers of q=%d, round2=%d pairs, budget=%d", n, s, t, p1, schema.NumFirstPhaseReducers(), schema.ReducerSize(), p2, sz.MatBudget),
		budget: sz.MatBudget,
		run: func(cfg mr.Config) (any, []mr.RoundMetrics, error) {
			prod, pipe, err := matmul.RunTwoPhase(x, y, schema, cfg)
			if err != nil {
				return nil, nil, err
			}
			return prod, pipe.Rounds, nil
		},
		check: func(out any, rounds []mr.RoundMetrics) []string {
			var bad []string
			if !matmul.Equal(out.(*matmul.Matrix), ref, 1e-9) {
				bad = append(bad, "product differs from the serial x.Mul(y)")
			}
			if len(rounds) != 2 {
				return append(bad, fmt.Sprintf("%d rounds, want 2", len(rounds)))
			}
			c1, c2 := rounds[0].Metrics.PairsShuffled, rounds[1].Metrics.PairsShuffled
			if c1 != p1 || c2 != p2 {
				bad = append(bad, fmt.Sprintf("communication %d+%d pairs, schema predicts %d+%d", c1, c2, p1, p2))
			}
			if got := rounds[0].Metrics.MaxReducerInput; float64(got) != q {
				bad = append(bad, fmt.Sprintf("q = %d, schema predicts %v", got, q))
			}
			// Section 6.3: two rounds beat the one-round optimum at equal q.
			if one := matmul.OnePhaseCommunication(n, q); float64(c1+c2) > one {
				bad = append(bad, fmt.Sprintf("two-round communication %d above the one-round optimum %v", c1+c2, one))
			}
			return bad
		},
		bound: func(rounds []mr.RoundMetrics) (float64, float64) {
			var comm int64
			for _, r := range rounds {
				comm += r.Metrics.PairsShuffled
			}
			inputs := float64(2 * n * n)
			best := matmul.TwoPhaseCommunication(n, float64(rounds[0].Metrics.MaxReducerInput))
			return best / inputs, float64(comm) / best
		},
		ladder: func(env *ladderEnv) error {
			// Round 1's stream, rebuilt from the schema: each element of
			// either matrix goes to the n/s cells that need it.
			g, gj := n/s, n/t
			pairs := make([]shuffle.Pair[int, MatEntry], 0, p1)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					for h := 0; h < g; h++ {
						pairs = append(pairs,
							shuffle.Pair[int, MatEntry]{Key: ((i/s)*g+h)*gj + j/t, Value: MatEntry{0, i, j, x.At(i, j)}},
							shuffle.Pair[int, MatEntry]{Key: (h*g+j/s)*gj + i/t, Value: MatEntry{1, i, j, y.At(i, j)}})
					}
				}
			}
			return runLadder(env, pairs)
		},
	}, nil
}

// ---- Triangle census (Section 4 plus two aggregation rounds) ----

func censusInstance(sz sizes, seed int64) (*instance, error) {
	n, m, k := sz.CenN, sz.CenM, sz.CenK
	schema, err := triangle.NewPartitionSchema(n, k)
	if err != nil {
		return nil, err
	}
	g := graphs.GNM(n, m, rand.New(rand.NewSource(seed)))
	refTriangles := g.TriangleCount()
	bound := func(rounds []mr.RoundMetrics) (float64, float64) {
		m1 := rounds[0].Metrics
		lb := triangle.LowerBound(n, triangle.TargetQ(float64(m1.MaxReducerInput), n, m))
		return lb, m1.ReplicationRate() / lb
	}
	return &instance{
		desc:   fmt.Sprintf("GNM(n=%d, m=%d) k=%d round1=%d pairs into %d reducers, %d triangles, budget=%d", n, m, k, k*m, schema.NumReducers(), refTriangles, sz.CenBudget),
		budget: sz.CenBudget,
		run: func(cfg mr.Config) (any, []mr.RoundMetrics, error) {
			res, err := triangle.Census(schema, g, cfg)
			if err != nil {
				return nil, nil, err
			}
			return res, res.Pipeline.Rounds, nil
		},
		check: func(out any, rounds []mr.RoundMetrics) []string {
			var bad []string
			var sum int64
			for _, nc := range out.(triangle.CensusResult).PerNode {
				sum += nc.Triangles
			}
			if sum != 3*refTriangles {
				bad = append(bad, fmt.Sprintf("per-node triangles sum to %d, serial count gives %d", sum, 3*refTriangles))
			}
			if len(rounds) != 3 {
				return append(bad, fmt.Sprintf("%d rounds, want 3", len(rounds)))
			}
			m1 := rounds[0].Metrics
			if m1.PairsShuffled != int64(k*m) {
				bad = append(bad, fmt.Sprintf("round-1 communication %d pairs, schema predicts %d", m1.PairsShuffled, k*m))
			}
			if r := m1.ReplicationRate(); r != float64(k) {
				bad = append(bad, fmt.Sprintf("round-1 r = %v, schema predicts %d", r, k))
			}
			if lb, _ := bound(rounds); m1.ReplicationRate() < lb {
				bad = append(bad, fmt.Sprintf("round-1 r = %v below the lower bound %v", m1.ReplicationRate(), lb))
			}
			if e := rounds[1].Metrics.PairsEmitted; e != 3*refTriangles {
				bad = append(bad, fmt.Sprintf("round 2 emitted %d pairs, 3 per triangle is %d", e, 3*refTriangles))
			}
			return bad
		},
		bound: bound,
		ladder: func(env *ladderEnv) error {
			prob := triangle.NewProblem(n)
			pairs := make([]shuffle.Pair[int, graphs.Edge], 0, k*m)
			for _, e := range g.Edges {
				for _, cell := range schema.Assign(prob.EdgeIndex(e.U, e.V)) {
					pairs = append(pairs, shuffle.Pair[int, graphs.Edge]{Key: cell, Value: e})
				}
			}
			return runLadder(env, pairs)
		},
	}, nil
}
