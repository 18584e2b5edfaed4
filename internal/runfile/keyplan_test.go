package runfile

import (
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
		plan := keyPlanOf(typ)
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
	plan := KeyPlanFor[blank]()
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

	if KeyPlanFor[struct{ V any }]() != nil || KeyPlanFor[*int]() != nil || KeyPlanFor[struct{ C chan int }]() != nil {
		t.Error("interface, pointer and channel kinds must have no plan")
	}
	if KeyPlanFor[struct{ _ *int }]() == nil {
		t.Error("an unplannable blank field must not cost the type its plan")
	}
	if KeyPlanFor[[1000]uint8]() == nil {
		t.Error("key plans are not capped at maxFixedOps")
	}
}

// TestKeyPlanHashSpreads: the low bits, which partition masks use, must
// spread sequential and single-field-varying keys.
func TestKeyPlanHashSpreads(t *testing.T) {
	type cell struct {
		Group int
		Rest  uint64
	}
	plan := KeyPlanFor[cell]()
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
	if HashBytes(0, []byte("ab")) == HashBytes(0, []byte("ab\x00")) {
		t.Error("HashBytes ignores length")
	}
}

func TestKeyPlanDoesNotAllocate(t *testing.T) {
	type k struct {
		A int
		S string
		F float64
	}
	plan := KeyPlanFor[k]()
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
