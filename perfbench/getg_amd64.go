package main

// getg returns the address of the running goroutine's runtime descriptor. It
// identifies the goroutine for as long as the goroutine lives, which is as
// long as any of its spans can be open, at a cost of one load instead of
// the stack walk runtime.Stack performs.
func getg() uintptr
