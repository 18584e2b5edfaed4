package runfile

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

type (
	nodeID   int64
	label    string
	celsius  float32
	keyInner struct {
		A int8 // followed by 7 padding bytes
		B uint64
	}
)

// keyLeafTypes are the scalar field types random key types draw from:
// every integer width, both floats, bool, string and named scalars.
var keyLeafTypes = []reflect.Type{
	reflect.TypeOf(false),
	reflect.TypeOf(int(0)), reflect.TypeOf(int8(0)), reflect.TypeOf(int16(0)),
	reflect.TypeOf(int32(0)), reflect.TypeOf(int64(0)),
	reflect.TypeOf(uint(0)), reflect.TypeOf(uint8(0)), reflect.TypeOf(uint16(0)),
	reflect.TypeOf(uint32(0)), reflect.TypeOf(uint64(0)), reflect.TypeOf(uintptr(0)),
	reflect.TypeOf(float32(0)), reflect.TypeOf(float64(0)),
	reflect.TypeOf(""), reflect.TypeOf(complex64(0)),
	reflect.TypeOf(nodeID(0)), reflect.TypeOf(label("")), reflect.TypeOf(celsius(0)),
	reflect.TypeOf(keyInner{}),
}

// randomKeyType builds a random comparable type: a leaf, an array, or a
// struct of such (mixed widths, so padded layouts arise on their own).
func randomKeyType(rng *rand.Rand, depth int) reflect.Type {
	switch n := rng.Intn(10); {
	case depth > 0 && n < 2:
		return reflect.ArrayOf(1+rng.Intn(3), randomKeyType(rng, depth-1))
	case depth > 0 && n < 6:
		fields := make([]reflect.StructField, 1+rng.Intn(4))
		for i := range fields {
			fields[i] = reflect.StructField{Name: fmt.Sprintf("F%d", i), Type: randomKeyType(rng, depth-1)}
		}
		return reflect.StructOf(fields)
	default:
		return keyLeafTypes[rng.Intn(len(keyLeafTypes))]
	}
}

// fillKey sets v to a random value drawn from a small domain, so equal
// fields (and equal keys) turn up often.
func fillKey(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(rng.Intn(5) - 2))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(uint64(rng.Intn(4)))
	case reflect.Float32, reflect.Float64:
		v.SetFloat([]float64{math.Copysign(0, -1), 0, -1.5, 2, math.Inf(1)}[rng.Intn(5)])
	case reflect.Complex64:
		v.SetComplex(complex(float64(rng.Intn(2)), float64(rng.Intn(2))))
	case reflect.String:
		v.SetString([]string{"", "a", "a b", "b", "longer than eight bytes", "longer than eight bytez"}[rng.Intn(6)])
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillKey(rng, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillKey(rng, v.Index(i))
		}
	}
}

// refCompare is the specification Compare is checked against: reflect's
// field-wise walk in declaration order.
func refCompare(a, b reflect.Value) int {
	three := func(lt, gt bool) int {
		if lt {
			return -1
		}
		if gt {
			return 1
		}
		return 0
	}
	switch a.Kind() {
	case reflect.Bool:
		return three(!a.Bool() && b.Bool(), a.Bool() && !b.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return three(a.Int() < b.Int(), a.Int() > b.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return three(a.Uint() < b.Uint(), a.Uint() > b.Uint())
	case reflect.Float32, reflect.Float64:
		return three(a.Float() < b.Float(), a.Float() > b.Float())
	case reflect.Complex64:
		x, y := a.Complex(), b.Complex()
		if c := three(real(x) < real(y), real(x) > real(y)); c != 0 {
			return c
		}
		return three(imag(x) < imag(y), imag(x) > imag(y))
	case reflect.String:
		return strings.Compare(a.String(), b.String())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if c := refCompare(a.Field(i), b.Field(i)); c != 0 {
				return c
			}
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if c := refCompare(a.Index(i), b.Index(i)); c != 0 {
				return c
			}
		}
	}
	return 0
}

// TestKeyPlanProperties checks the plan against its specification over
// random key types and values. Every value lives in memory pre-filled
// with garbage that differs from value to value, so a plan that read a
// padding byte would see equal keys as different.
func TestKeyPlanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		typ := randomKeyType(rng, 3)
		plan := planOf(typ)
		if plan == nil {
			t.Fatalf("%v: no key plan", typ)
		}
		vals := make([]reflect.Value, 12)
		for i := range vals {
			v := reflect.New(typ).Elem()
			mem := unsafe.Slice((*byte)(v.Addr().UnsafePointer()), typ.Size())
			for j := range mem {
				mem[j] = byte(rng.Intn(256))
			}
			fillKey(rng, v)
			vals[i] = v
		}
		ptr := func(v reflect.Value) unsafe.Pointer { return v.Addr().UnsafePointer() }
		for _, a := range vals {
			for _, b := range vals {
				got, want := plan.Compare(ptr(a), ptr(b)), refCompare(a, b)
				if got != want {
					t.Fatalf("%v: Compare(%v, %v) = %d, want %d", typ, a, b, got, want)
				}
				if rev := plan.Compare(ptr(b), ptr(a)); rev != -got {
					t.Fatalf("%v: Compare(%v, %v) = %d but reversed %d", typ, a, b, got, rev)
				}
				equal := a.Interface() == b.Interface()
				if (got == 0) != equal {
					t.Fatalf("%v: Compare(%v, %v) = %d but == is %v", typ, a, b, got, equal)
				}
				if equal && plan.Hash(3, ptr(a)) != plan.Hash(3, ptr(b)) {
					t.Fatalf("%v: equal keys %v and %v hash differently", typ, a, b)
				}
			}
		}
		// Transitivity: a sort by Compare must leave every pair ordered,
		// not just the adjacent ones.
		sort.SliceStable(vals, func(i, j int) bool { return plan.Compare(ptr(vals[i]), ptr(vals[j])) < 0 })
		for i := range vals {
			for j := i + 1; j < len(vals); j++ {
				if plan.Compare(ptr(vals[i]), ptr(vals[j])) > 0 {
					t.Fatalf("%v: sorted order not transitive at %v > %v", typ, vals[i], vals[j])
				}
			}
		}
	}
}

// TestKeyPlanStaticKinds covers what reflect.StructOf cannot build —
// blank and unexported fields — and the kinds that have no plan.
func TestKeyPlanStaticKinds(t *testing.T) {
	type blank struct {
		A int32
		_ int64
		b string
	}
	plan := PlanFor[blank]()
	if plan == nil {
		t.Fatal("blank/unexported-field struct has no key plan")
	}
	x, y := blank{A: 1, b: "k"}, blank{A: 1, b: "k"}
	// Write into the blank field behind the compiler's back: == ignores
	// it, so Compare and Hash must too.
	*(*int64)(unsafe.Add(unsafe.Pointer(&y), unsafe.Offsetof(y.b)-8)) = 99
	if x != y {
		t.Fatal("test setup: blank field took part in ==")
	}
	if plan.Compare(unsafe.Pointer(&x), unsafe.Pointer(&y)) != 0 || plan.Hash(1, unsafe.Pointer(&x)) != plan.Hash(1, unsafe.Pointer(&y)) {
		t.Error("blank field took part in Compare or Hash")
	}
	z := blank{A: 1, b: "l"}
	if plan.Compare(unsafe.Pointer(&x), unsafe.Pointer(&z)) >= 0 {
		t.Error("unexported string field not compared")
	}

	if PlanFor[struct{ V any }]() != nil || PlanFor[*int]() != nil || PlanFor[struct{ C chan int }]() != nil {
		t.Error("interface, pointer and channel kinds must have no plan")
	}
	if PlanFor[struct{ _ *int }]() == nil {
		t.Error("an unplannable blank field must not cost the type its plan")
	}
	if PlanFor[[1000]uint8]() == nil {
		t.Error("a large array has no plan: plans are not capped")
	}

	// HasFloat names the types whose values can be NaN.
	if PlanFor[int]().HasFloat() || PlanFor[struct{ S string }]().HasFloat() {
		t.Error("a key without a float part reports HasFloat")
	}
	if !PlanFor[float32]().HasFloat() || !PlanFor[struct{ C complex64 }]().HasFloat() || !PlanFor[[2]struct{ A, F float64 }]().HasFloat() {
		t.Error("a key with a float or complex part does not report HasFloat")
	}
}

// TestKeyPlanHashSpreads: the low bits, which partition masks use, must
// spread sequential and single-field-varying keys.
func TestKeyPlanHashSpreads(t *testing.T) {
	type cell struct {
		Group int
		Rest  uint64
	}
	plan := PlanFor[cell]()
	var byGroup, byRest [16]int
	for i := 0; i < 1600; i++ {
		a, b := cell{Group: i}, cell{Group: 3, Rest: uint64(i) << 20}
		byGroup[plan.Hash(0, unsafe.Pointer(&a))&15]++
		byRest[plan.Hash(0, unsafe.Pointer(&b))&15]++
	}
	for p := range byGroup {
		if byGroup[p] < 50 || byGroup[p] > 150 || byRest[p] < 50 || byRest[p] > 150 {
			t.Fatalf("partition %d of 16 got %d / %d of 1600 keys, want about 100", p, byGroup[p], byRest[p])
		}
	}
	a := cell{1, 2}
	if plan.Hash(1, unsafe.Pointer(&a)) == plan.Hash(2, unsafe.Pointer(&a)) {
		t.Error("seed does not reach the hash")
	}
	sp := PlanFor[string]()
	ab, abz := "ab", "ab\x00"
	if sp.Hash(0, unsafe.Pointer(&ab)) == sp.Hash(0, unsafe.Pointer(&abz)) {
		t.Error("string key hash ignores length")
	}
}

func TestKeyPlanDoesNotAllocate(t *testing.T) {
	type k struct {
		A int
		S string
		F float64
	}
	plan := PlanFor[k]()
	x, y := k{1, "some string key", 2}, k{1, "some string kez", 2}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		sink += plan.Hash(9, unsafe.Pointer(&x))
		sink += uint64(plan.Compare(unsafe.Pointer(&x), unsafe.Pointer(&y)))
	}); n != 0 {
		t.Errorf("Hash+Compare allocate %v times per call, want 0", n)
	}
	_ = sink
}

// checkNormPair holds the normalized form to its contract on one pair
// of keys: the words order a and b exactly as the reflect specification
// (refCompare) and Compare do, and are equal exactly when a == b.
func checkNormPair[K comparable](t *testing.T, plan *Plan, a, b K) {
	t.Helper()
	a0, a1 := plan.Norm(unsafe.Pointer(&a))
	b0, b1 := plan.Norm(unsafe.Pointer(&b))
	got := cmp.Or(cmp.Compare(a0, b0), cmp.Compare(a1, b1))
	want := refCompare(reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem())
	if got != want || plan.Compare(unsafe.Pointer(&a), unsafe.Pointer(&b)) != want {
		t.Fatalf("%T: Norm(%v) = %#x %#x, Norm(%v) = %#x %#x: words compare %d, want %d (Compare %d)",
			a, a, a0, a1, b, b0, b1, got, want, plan.Compare(unsafe.Pointer(&a), unsafe.Pointer(&b)))
	}
	if (got == 0) != (a == b) {
		t.Fatalf("%T: words of %v and %v compare %d but == is %v", a, a, b, got, a == b)
	}
}

// checkNorm checks every ordered pair of vals and that Norm does not
// allocate.
func checkNorm[K comparable](t *testing.T, vals ...K) {
	t.Helper()
	plan := PlanFor[K]()
	if !plan.Normalized() {
		t.Fatalf("%T has no normalized form", vals[0])
	}
	for _, a := range vals {
		for _, b := range vals {
			checkNormPair(t, plan, a, b)
		}
	}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		w0, w1 := plan.Norm(unsafe.Pointer(&vals[0]))
		sink += w0 ^ w1
	}); n != 0 {
		t.Errorf("%T: Norm allocates %v times per call, want 0", vals[0], n)
	}
	_ = sink
}

// TestKeyNormOrder: every key of at most two number or bool parts has
// a normalized form whose word order is the key order, at the extremes
// of every integer width and over the float values that need the IEEE
// flip (±0, ±Inf, subnormals, the largest and smallest magnitudes);
// keys with a string or more than two parts have none.
func TestKeyNormOrder(t *testing.T) {
	checkNorm(t, int8(math.MinInt8), -1, 0, 1, math.MaxInt8)
	checkNorm(t, int16(math.MinInt16), -1, 0, 1, math.MaxInt16)
	checkNorm(t, int32(math.MinInt32), -1, 0, 1, math.MaxInt32)
	checkNorm(t, int64(math.MinInt64), -1, 0, 1, math.MaxInt64)
	checkNorm(t, int(math.MinInt), -1, 0, 1, math.MaxInt)
	checkNorm(t, nodeID(math.MinInt64), -7, 0, math.MaxInt64)
	checkNorm(t, uint8(0), 1, math.MaxInt8+1, math.MaxUint8)
	checkNorm(t, uint16(0), 1, math.MaxInt16+1, math.MaxUint16)
	checkNorm(t, uint32(0), 1, math.MaxInt32+1, math.MaxUint32)
	checkNorm(t, uint64(0), 1, math.MaxInt64+1, math.MaxUint64)
	checkNorm(t, uint(0), 1, math.MaxInt+1, math.MaxUint)
	checkNorm(t, uintptr(0), 1, ^uintptr(0)>>1+1, ^uintptr(0))
	negZero := math.Copysign(0, -1)
	checkNorm(t, float32(math.Inf(-1)), -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32,
		float32(negZero), 0, math.SmallestNonzeroFloat32, 0x1p-127, 1, math.MaxFloat32, float32(math.Inf(1)))
	checkNorm(t, math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, -0x1p-1023,
		negZero, 0, math.SmallestNonzeroFloat64, 0x1p-1023, 1, math.MaxFloat64, math.Inf(1))
	checkNorm(t, celsius(-1), celsius(negZero), 0, 2)
	checkNorm(t, false, true)
	checkNorm(t, complex64(0), complex(float32(negZero), 0), complex(0, float32(negZero)), complex(-1, 2), complex(-1, -2), complex(1, 0))
	type split struct {
		Segment int
		Bits    uint64
	}
	checkNorm(t, split{0, 0}, split{0, math.MaxUint64}, split{-1, 5}, split{1, 0}, split{math.MinInt, 1})
	checkNorm(t, keyInner{-1, 9}, keyInner{-1, 0}, keyInner{math.MaxInt8, 0}, keyInner{0, math.MaxUint64})
	checkNorm(t, [2]int32{0, 0}, [2]int32{-1, math.MaxInt32}, [2]int32{math.MinInt32, 0}, [2]int32{0, -1})
	checkNorm(t, struct{}{})

	if PlanFor[string]().Normalized() || PlanFor[label]().Normalized() ||
		PlanFor[struct {
			N int
			S string
		}]().Normalized() {
		t.Error("a key with a string part has a normalized form")
	}
	if !PlanFor[complex128]().Normalized() {
		t.Error("complex128, two float parts, has no normalized form")
	}
	if PlanFor[[3]int8]().Normalized() || PlanFor[struct{ A, B, C bool }]().Normalized() ||
		PlanFor[struct {
			C complex64
			N int
		}]().Normalized() {
		t.Error("a key of more than two parts has a normalized form")
	}
}

// FuzzKeyNorm reinterprets raw bytes as two keys of each normalized
// shape — every bit pattern, padding bytes included, except NaNs (not
// keys) and bools other than 0 and 1 (not Go values) — and holds their
// normalized form to the key order.
func FuzzKeyNorm(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 2 {
			checkNormPair(t, PlanFor[bool](), data[0]&1 == 1, data[1]&1 == 1)
		}
		fuzzNormShape[int8](t, data)
		fuzzNormShape[int16](t, data)
		fuzzNormShape[int32](t, data)
		fuzzNormShape[int64](t, data)
		fuzzNormShape[int](t, data)
		fuzzNormShape[uint8](t, data)
		fuzzNormShape[uint16](t, data)
		fuzzNormShape[uint32](t, data)
		fuzzNormShape[uint64](t, data)
		fuzzNormShape[uintptr](t, data)
		fuzzNormShape[float32](t, data)
		fuzzNormShape[float64](t, data)
		fuzzNormShape[complex64](t, data)
		fuzzNormShape[keyInner](t, data)
		fuzzNormShape[[2]int32](t, data)
		fuzzNormShape[struct {
			F float32
			N int64
		}](t, data)
	})
}

// fuzzNormShape fills two Ks from data's leading bytes and checks them.
func fuzzNormShape[K comparable](t *testing.T, data []byte) {
	var a, b K
	size := int(unsafe.Sizeof(a))
	if len(data) < 2*size {
		return
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&a)), size), data)
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&b)), size), data[size:])
	if a != a || b != b {
		return // a NaN is not == to itself, hence not a key
	}
	checkNormPair(t, PlanFor[K](), a, b)
}
