package main

import (
	"slices"
	"testing"
)

func TestKeySet(t *testing.T) {
	a, b := newKeySet(200), newKeySet(200)
	for _, k := range []uint64{3, 64, 199, 3} {
		a.add(k)
	}
	for _, k := range []uint64{64, 65, 0} {
		b.add(k)
	}
	if a.len() != 3 || !a.has(64) || a.has(65) {
		t.Fatalf("a: len %d, has(64) %v, has(65) %v", a.len(), a.has(64), a.has(65))
	}
	a.union(b)
	var got []uint64
	a.each(func(k uint64) { got = append(got, k) })
	if want := []uint64{0, 3, 64, 65, 199}; !slices.Equal(got, want) || a.len() != len(want) {
		t.Fatalf("union: keys %v (len %d), want %v", got, a.len(), want)
	}
}
