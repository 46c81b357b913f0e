//go:build !amd64

package main

import (
	"runtime"
	"strconv"
	"strings"
)

// getg returns the running goroutine's id, parsed from the header line of
// its stack trace ("goroutine 17 [running]:").
func getg() uintptr {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(s, 10, 64)
	return uintptr(id)
}
