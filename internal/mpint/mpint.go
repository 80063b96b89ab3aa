// Package mpint is the stand-in for the GMP library used by the
// paper's first benchmark set (§6): multi-precision integers with a
// next_prime operation. The basic data structure, Data, mirrors the
// paper's gmp_data — an array of SIZE multi-precision integers — and
// Work mirrors the per-cell kernel: add the inputs element-wise, then
// advance each element to the num-th prime after it. The kernel is
// serial and compute-intensive, exactly the workload shape per-loop
// polyhedral optimizers gain nothing on.
//
// Values below 2^62 — every value Table 9 produces — take a word-sized
// path: an exact 64-bit Miller–Rabin test on uint64. Everything else
// (negative, ≥ 2^62 or multi-word) takes the math/big loop. Both paths
// return the same primes, because ProbablyPrime is documented as exact
// below 2^64 and the word test is exact over its whole range.
package mpint

import (
	"math/big"
	"math/bits"
)

// wordLimit bounds the word path. By Bertrand's postulate the next
// prime after n < 2^62 lies below 2^63, so a search that starts under
// the limit cannot overflow.
const wordLimit = 1 << 62

// Data is an array of SIZE multi-precision integers (the gmp_data
// analogue).
type Data struct {
	Words []*big.Int
}

// NewData returns a Data with size elements seeded deterministically
// from seed. Values are sized so a next-prime search costs real work
// but stays fast enough for test suites.
func NewData(size int, seed uint64) *Data {
	d := &Data{Words: make([]*big.Int, size)}
	for k := range d.Words {
		d.Words[k] = new(big.Int)
	}
	d.seed(seed)
	return d
}

// seed overwrites d's values in place with NewData's contents for seed.
func (d *Data) seed(seed uint64) {
	for k, w := range d.Words {
		v := mix(seed + uint64(k)*0x9e3779b97f4a7c15)
		// 21-bit values: next-prime searches scan ~14 candidates.
		w.SetUint64(v%(1<<21) + 3)
	}
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// Size returns the number of elements.
func (d *Data) Size() int { return len(d.Words) }

// Clone returns an independent deep copy.
func (d *Data) Clone() *Data {
	c := &Data{Words: make([]*big.Int, len(d.Words))}
	for k, w := range d.Words {
		c.Words[k] = new(big.Int).Set(w)
	}
	return c
}

// Hash digests the value, order-sensitively.
func (d *Data) Hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, w := range d.Words {
		for _, b := range w.Bytes() {
			h ^= uint64(b)
			h *= prime
		}
		h ^= uint64(w.Sign() + 2)
		h *= prime
	}
	return h
}

// NextPrime sets dst to the smallest prime strictly greater than z and
// returns dst (GMP's mpz_nextprime). dst and z may alias.
func NextPrime(dst, z *big.Int) *big.Int {
	if z.IsUint64() && z.Uint64() < wordLimit {
		return dst.SetUint64(nextPrime64(z.Uint64()))
	}
	return nextPrimeBig(dst, z)
}

// nextPrimeBig is NextPrime on math/big: the path for values the word
// path cannot hold, and the reference the word path is tested against.
func nextPrimeBig(dst, z *big.Int) *big.Int {
	one := big.NewInt(1)
	two := big.NewInt(2)
	dst.Set(z)
	dst.Add(dst, one)
	if dst.Cmp(two) <= 0 {
		return dst.Set(two)
	}
	if dst.Bit(0) == 0 { // even and > 2: move to the next odd
		dst.Add(dst, one)
	}
	for !dst.ProbablyPrime(20) {
		dst.Add(dst, two)
	}
	return dst
}

// nextPrime64 returns the smallest prime greater than n, for n < 2^63.
func nextPrime64(n uint64) uint64 {
	if n < 2 {
		return 2
	}
	c := n + 1
	if c&1 == 0 { // even and > 2: move to the next odd
		c++
	}
	for !isPrime64(c) {
		c += 2
	}
	return c
}

// smallPrimes are the trial divisors and, for n ≥ 2^32, the
// Miller–Rabin bases. The first 12 primes as bases decide primality
// exactly for every n < 3 317 044 064 679 887 385 961 981, which is
// > 2^81 (Sorenson and Webster, "Strong pseudoprimes to twelve prime
// bases", Math. Comp. 86, 2017).
var smallPrimes = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// bases32 decide primality exactly for every n < 4 759 123 141
// (Jaeschke, "On strong pseudoprimes to several bases", Math. Comp. 61,
// 1993), which is > 2^32: 4 759 123 141 = 48781 · 97561 is the smallest
// strong pseudoprime to all three.
var bases32 = [...]uint64{2, 7, 61}

// isPrime64 reports whether n is prime, exactly, for every uint64 n.
func isPrime64(n uint64) bool {
	for _, p := range smallPrimes {
		if n%p == 0 {
			return n == p
		}
	}
	if n < 37*37 {
		return n > 1
	}
	if n < 1<<32 {
		return strongProbablePrime(n, bases32[:])
	}
	return strongProbablePrime(n, smallPrimes[:])
}

// strongProbablePrime reports whether the odd n, larger than every
// base, is a strong probable prime to each base.
func strongProbablePrime(n uint64, bases []uint64) bool {
	d := n - 1
	s := bits.TrailingZeros64(d)
	d >>= uint(s)
next:
	for _, a := range bases {
		x := powMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		for r := 1; r < s; r++ {
			x = mulMod(x, x, n)
			if x == n-1 {
				continue next
			}
		}
		return false
	}
	return true
}

// mulMod returns a·b mod m for a, b < m.
func mulMod(a, b, m uint64) uint64 {
	if m < 1<<32 {
		return a * b % m
	}
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi, lo, m) // hi < m because a, b < m
	return r
}

// powMod returns a^e mod m for a < m.
func powMod(a, e, m uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mulMod(r, a, m)
		}
		a = mulMod(a, a, m)
	}
	return r
}

// Work implements the paper's compute kernel for one matrix cell:
// element-wise it sums dst and the inputs, then replaces each element
// with the num-th prime after the sum. num scales the compute cost
// (the num_i column of Table 9). Work does not retain inputs, and it
// allocates nothing while the values stay below 2^62.
func Work(dst *Data, inputs []*Data, num int) {
	for k, w := range dst.Words {
		v, ok := wordSum(dst, inputs, k)
		if !ok {
			workBig(dst, inputs, k, num)
			continue
		}
		step := 0
		for ; step < num && v < wordLimit; step++ {
			v = nextPrime64(v)
		}
		w.SetUint64(v)
		for ; step < num; step++ { // the search left the word path
			NextPrime(w, w)
		}
	}
}

// wordSum returns element k of dst plus the inputs when every term is
// a non-negative uint64 and the sum neither carries nor reaches
// wordLimit.
func wordSum(dst *Data, inputs []*Data, k int) (uint64, bool) {
	w := dst.Words[k]
	if !w.IsUint64() {
		return 0, false
	}
	v := w.Uint64()
	for _, in := range inputs {
		x := in.Words[k]
		if !x.IsUint64() {
			return 0, false
		}
		var carry uint64
		v, carry = bits.Add64(v, x.Uint64(), 0)
		if carry != 0 {
			return 0, false
		}
	}
	return v, v < wordLimit
}

// workBig is Work on math/big for element k.
func workBig(dst *Data, inputs []*Data, k, num int) {
	sum := new(big.Int).Set(dst.Words[k])
	for _, in := range inputs {
		sum.Add(sum, in.Words[k])
	}
	for step := 0; step < num; step++ {
		NextPrime(sum, sum)
	}
	dst.Words[k].Set(sum)
}

// Matrix is an N×N grid of Data cells, the A_i matrices of Table 9.
type Matrix struct {
	N    int
	size int
	Cell []*Data // row-major
}

// NewMatrix allocates an N×N matrix whose cells hold size elements.
// Cells, integers, integer pointers and one word per integer each
// share one backing array, so word-sized values never allocate again.
func NewMatrix(n, size int) *Matrix {
	m := &Matrix{N: n, size: size, Cell: make([]*Data, n*n)}
	cells := make([]Data, n*n)
	ints := make([]big.Int, n*n*size)
	ptrs := make([]*big.Int, n*n*size)
	words := make([]big.Word, n*n*size)
	for w := range ints {
		ints[w].SetBits(words[w : w+1 : w+1])
		ptrs[w] = &ints[w]
	}
	for i := range m.Cell {
		cells[i].Words = ptrs[i*size : (i+1)*size : (i+1)*size]
		m.Cell[i] = &cells[i]
	}
	m.Reseed(0)
	return m
}

// At returns the cell at row i, column j.
func (m *Matrix) At(i, j int) *Data { return m.Cell[i*m.N+j] }

// Reseed restores the deterministic initial contents in place.
func (m *Matrix) Reseed(stream uint64) {
	for idx, c := range m.Cell {
		c.seed(stream*0x100000001 + uint64(idx))
	}
}

// Hash digests the whole matrix.
func (m *Matrix) Hash() uint64 {
	h := uint64(0)
	for _, c := range m.Cell {
		h = h*1099511628211 ^ c.Hash()
	}
	return h
}
