package value

import (
	"fmt"
	"strings"
	"testing"
)

// benchKinds are the operands of the value micro-benchmarks: 64 ints, and
// 64 ten-byte strings such as a join key carries. Each comes twice, the
// second copy equal to the first but (for strings) in an array of its
// own, as a probing tuple's key is to a stored one's.
func benchKinds() []struct {
	name string
	a, b []Value
} {
	ints, strs := make([]Value, 64), make([]Value, 64)
	ints2, strs2 := make([]Value, 64), make([]Value, 64)
	for i := range ints {
		ints[i], ints2[i] = Int(int64(i)*7919), Int(int64(i)*7919)
		s := fmt.Sprintf("key-%06d", i*7919)
		strs[i], strs2[i] = Str(s), Str(strings.Clone(s))
	}
	return []struct {
		name string
		a, b []Value
	}{{"int", ints, ints2}, {"string", strs, strs2}}
}

var (
	benchHash uint64
	benchBool bool
	benchCmp  int
)

// BenchmarkValueHash is the hash the join's state, the shj reference and
// the benchmark's tuple checksum call per key.
func BenchmarkValueHash(b *testing.B) {
	for _, k := range benchKinds() {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			var h uint64
			for i := 0; i < b.N; i++ {
				h ^= k.a[i&63].Hash()
			}
			benchHash = h
		})
	}
}

// BenchmarkValueEqual compares equal values (for strings: equal bytes in
// two arrays) and unequal neighbours in turn: an even i meets its copy,
// an odd one the next value.
func BenchmarkValueEqual(b *testing.B) {
	for _, k := range benchKinds() {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				if k.a[i&63].Equal(k.b[(i+i%2)&63]) {
					n++
				}
			}
			benchBool = n > 0
		})
	}
}

// BenchmarkValueCompare orders neighbouring values, as range patterns and
// closed-key intervals do.
func BenchmarkValueCompare(b *testing.B) {
	for _, k := range benchKinds() {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			c := 0
			for i := 0; i < b.N; i++ {
				r, _ := k.a[i&63].Compare(k.b[(i+1)&63])
				c += r
			}
			benchCmp = c
		})
	}
}
