//go:build !dcstub

package lib

// Tagged is the build the checker sees.
func Tagged() string { return "real" }
