// Package lib holds one declaration of each kind the checker decides.
package lib

import "fmt"

// Live is called from main.
func Live() int { return 1 }

// Dead has no caller outside tests.
func Dead() int { return helper() }

// helper is reachable only from Dead.
func helper() int { return 2 }

// Str is printed by main: its String method is called through
// fmt.Stringer, which no module code names.
type Str struct{}

func (Str) String() string { return "str" }

// NeverCalled is selected nowhere and declared by no interface.
func (Str) NeverCalled() int { return 3 }

// Box is used only as Box[int].
type Box[T any] struct{ v T }

// Get is reached only through the instantiation Box[int].
func (b Box[T]) Get() T { return b.v }

// Ident is a generic function main calls with an inferred type.
func Ident[T any](x T) T { return x }

// Svc is registered with net/rpc, which calls Echo by reflection.
type Svc struct{}

func (*Svc) Echo(args string, reply *string) error {
	*reply = args
	return nil
}

// registered is called only from a blank variable's initializer, which
// runs whenever the package is linked in.
func registered() int { return 4 }

var _ = registered()

// Asserted appears only in compile-time assertions, which run nothing.
type Asserted struct{}

func (Asserted) String() string { return "asserted" }

var (
	_ fmt.Stringer = Asserted{}
	_ fmt.Stringer = (*Asserted)(nil)
)
