// Package hashfn provides the hash functions and key packers evaluated in
// Section V-C of the paper ("Hash Behavior Analysis"): Fibonacci hashing
// (Equation 6, the primary function), linear congruential hashing, a bitwise
// (xorshift-multiply) hash, and the naive concatenated hash. It also
// implements the tuple key packing of Equation 5.
//
// All functions are pure, allocation-free, and deterministic so that hash
// experiments are exactly reproducible.
package hashfn

import "math/bits"

// Kind selects one of the hash function families compared in the paper.
type Kind uint8

const (
	// Fibonacci is Knuth's multiplicative hash using the inverse golden
	// ratio (Equation 6 in the paper). It is the primary hash of the
	// parallel Louvain implementation.
	Fibonacci Kind = iota
	// LinearCongruential applies a 64-bit LCG step before range mapping.
	// The paper found it competitive with Fibonacci hashing.
	LinearCongruential
	// Bitwise is an xorshift-multiply mixer (splitmix64 finalizer).
	Bitwise
	// Concatenated uses the packed key directly ("just take the key
	// bits"), the weakest function in the paper's comparison.
	Concatenated
)

// String returns the name used in experiment output.
func (k Kind) String() string {
	switch k {
	case Fibonacci:
		return "fibonacci"
	case LinearCongruential:
		return "lcg"
	case Bitwise:
		return "bitwise"
	case Concatenated:
		return "concatenated"
	default:
		return "unknown"
	}
}

// Kinds lists every hash function family, in the order reported by the
// hash-behaviour experiments.
func Kinds() []Kind {
	return []Kind{Fibonacci, LinearCongruential, Bitwise, Concatenated}
}

const (
	// fibMult is floor(phi^-1 * 2^64) rounded to the nearest odd integer:
	// the multiplier of Equation 6 with W = 2^64.
	fibMult = 0x9E3779B97F4A7C15
	// lcgMult and lcgInc are the MMIX linear congruential constants.
	lcgMult = 6364136223846793005
	lcgInc  = 1442695040888963407
)

// Mix applies the 64-bit mixing step of the selected hash family without
// range reduction. Concatenated is the identity.
func Mix(k Kind, x uint64) uint64 {
	switch k {
	case Fibonacci:
		return x * fibMult
	case LinearCongruential:
		return x*lcgMult + lcgInc
	case Bitwise:
		// splitmix64 finalizer.
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		return x
	default: // Concatenated
		return x
	}
}

// Index maps key x into a table of m buckets using the selected family.
//
// For Fibonacci, LinearCongruential and Bitwise this is the paper's
// Equation 6 shape H(x) = floor(M/W * (mix(x) mod W)) with W = 2^64,
// computed exactly via a 64x64->128 multiply, which supports arbitrary
// (not just power-of-two) table sizes. Concatenated uses x mod m, the
// naive mapping the paper compares against.
func Index(k Kind, x, m uint64) uint64 {
	if m == 0 {
		return 0
	}
	if k == Concatenated {
		return x % m
	}
	hi, _ := bits.Mul64(Mix(k, x), m)
	return hi
}

// Pack16 packs tuple (t1, t2) as (t1<<16)|t2, the literal Equation 5 of the
// paper. It is only injective when t2 < 2^16 and t1 < 2^48; the parallel
// Louvain implementation uses Pack32 instead. The package tests use Pack16
// to show the clustering the concatenated hash suffers on such keys.
func Pack16(t1, t2 uint64) uint64 {
	return t1<<16 | (t2 & 0xFFFF)
}

// Pack32 packs a pair of 32-bit values into an injective 64-bit key,
// the wide variant of Equation 5 used throughout this implementation.
func Pack32(t1, t2 uint32) uint64 {
	return uint64(t1)<<32 | uint64(t2)
}

// Unpack32 inverts Pack32.
func Unpack32(x uint64) (t1, t2 uint32) {
	return uint32(x >> 32), uint32(x)
}
