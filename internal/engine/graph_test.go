package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// splitRound tokenizes docs into (word, 1) pairs and passes them on.
func splitRound() Round[string, string, int, string] {
	return Round[string, string, int, string]{
		Name: "split",
		Map: func(doc string, emit func(string, int)) {
			for _, w := range strings.Fields(doc) {
				emit(w, 1)
			}
		},
		Reduce: func(w string, counts []int, emit func(string)) {
			for range counts {
				emit(w)
			}
		},
	}
}

// countRound counts word occurrences.
func countRound(name string) Round[string, string, int, string] {
	return Round[string, string, int, string]{
		Name: name,
		Map:  func(w string, emit func(string, int)) { emit(w, 1) },
		Reduce: func(w string, counts []int, emit func(string)) {
			emit(w + "=" + itoa(len(counts)))
		},
	}
}

func TestGraphLinearThreeRounds(t *testing.T) {
	// Round 1 tokenizes, round 2 counts, round 3 buckets counts into a
	// histogram — an N=3 pipeline through the engine.
	hist := Round[string, int, int, string]{
		Name: "histogram",
		Map: func(wc string, emit func(int, int)) {
			eq := strings.IndexByte(wc, '=')
			n := 0
			for _, c := range wc[eq+1:] {
				n = n*10 + int(c-'0')
			}
			emit(n, 1)
		},
		Reduce: func(count int, ones []int, emit func(string)) {
			emit(itoa(count) + "x" + itoa(len(ones)))
		},
	}
	g := NewGraph().
		Add("split", Stage(splitRound())).
		Add("count", Stage(countRound("count")), "split").
		Add("histogram", Stage(hist), "count")
	res, err := g.Run([]string{"a b a", "b b c"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Output()
	if err != nil {
		t.Fatal(err)
	}
	// Counts: a=2 b=3 c=1 -> histogram: count 1 x1 word, 2 x1, 3 x1.
	want := []string{"1x1", "2x1", "3x1"}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("output = %v, want %v", out, want)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("Rounds = %d, want 3", len(res.Rounds))
	}
	if res.Rounds[0].Name != "split" || res.Rounds[2].Name != "histogram" {
		t.Errorf("round order = %v", res.Rounds)
	}
	if res.TotalPairsShuffled() <= 0 {
		t.Error("no communication recorded")
	}
}

func TestGraphDiamondFanInConcatenatesInputs(t *testing.T) {
	// source -> (left, right) -> join: the join stage sees both branches'
	// outputs concatenated in dependency-declaration order.
	passthrough := func(name, tag string) Round[string, string, int, string] {
		return Round[string, string, int, string]{
			Name: name,
			Map:  func(w string, emit func(string, int)) { emit(tag+w, 1) },
			Reduce: func(w string, _ []int, emit func(string)) {
				emit(w)
			},
		}
	}
	g := NewGraph().
		Add("source", Stage(splitRound())).
		Add("left", Stage(passthrough("left", "L:")), "source").
		Add("right", Stage(passthrough("right", "R:")), "source").
		Add("join", Stage(countRound("join")), "left", "right")
	res, err := g.Run([]string{"x y"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Output()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"L:x=1", "L:y=1", "R:x=1", "R:y=1"}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("output = %v, want %v", out, want)
	}
	if got := res.Sinks(); !reflect.DeepEqual(got, []string{"join"}) {
		t.Errorf("Sinks = %v, want [join]", got)
	}
	if v, ok := res.Value("left"); !ok || len(v.([]string)) != 2 {
		t.Errorf("Value(left) = %v, %v", v, ok)
	}
}

func TestGraphValidation(t *testing.T) {
	if _, err := NewGraph().
		Add("a", Stage(splitRound())).
		Add("a", Stage(splitRound())).
		Run(nil); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate stage: err = %v", err)
	}
	if _, err := NewGraph().
		Add("a", Stage(splitRound()), "ghost").
		Run(nil); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown dep: err = %v", err)
	}
	if _, err := NewGraph().
		Add("a", Stage(splitRound()), "b").
		Add("b", Stage(splitRound()), "a").
		Run(nil); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle: err = %v", err)
	}
}

func TestGraphPropagatesStageError(t *testing.T) {
	overflowing := wordCountRound(Config{Plan: Plan{MaxReducerInput: 1}})
	g := NewGraph().
		Add("bad", Stage(overflowing)).
		Add("after", Stage(countRound("after")), "bad")
	_, err := g.Run([]string{"a a a"})
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v, want ErrReducerOverflow", err)
	}
	if !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("error %q does not name the failing stage", err)
	}
}

func TestGraphTypeMismatch(t *testing.T) {
	intRound := Round[int, int, int, int]{
		Name:   "ints",
		Map:    func(x int, emit func(int, int)) { emit(x, x) },
		Reduce: func(k int, _ []int, emit func(int)) { emit(k) },
	}
	g := NewGraph().
		Add("strings", Stage(splitRound())).
		Add("ints", Stage(intRound), "strings")
	if _, err := g.Run([]string{"a"}); err == nil || !strings.Contains(err.Error(), "want []int") {
		t.Errorf("type mismatch err = %v", err)
	}
}

func TestGraphMultipleSinksOutputErrors(t *testing.T) {
	g := NewGraph().
		Add("a", Stage(splitRound())).
		Add("b", Stage(countRound("b")), "a").
		Add("c", Stage(countRound("c")), "a")
	res, err := g.Run([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Output(); err == nil {
		t.Error("Output() on two-sink graph should error")
	}
}
