//go:build dcstub

package lib

// Tagged is the stub build; the checker must not load this file.
func Tagged() string { return "stub" }

// StubOnly exists only in the stub build.
func StubOnly() {}
