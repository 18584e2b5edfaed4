// Command app is the root of the deadcode checker's test module.
package main

import (
	"fmt"
	"net/rpc"

	"example.com/dc/lib"
)

func main() {
	var b lib.Box[int]
	fmt.Println(lib.Live(), lib.Str{}, b.Get(), lib.Ident(3), lib.Tagged())
	if err := rpc.Register(new(lib.Svc)); err != nil {
		panic(err)
	}
}
