package mpint

import (
	"math/big"
	"math/rand"
	"testing"
)

// checkNextPrime fails when NextPrime disagrees with the math/big
// reference at z.
func checkNextPrime(t testing.TB, z *big.Int) {
	t.Helper()
	got := NextPrime(new(big.Int), z)
	want := nextPrimeBig(new(big.Int), z)
	if got.Cmp(want) != 0 {
		t.Fatalf("NextPrime(%v) = %v, reference %v", z, got, want)
	}
}

// checkRange compares NextPrime with the reference on every z in
// [lo, hi). The reference's answer is the same for every z between two
// consecutive primes, so it is asked again only when z reaches its
// previous answer.
func checkRange(t *testing.T, lo, hi int64) {
	t.Helper()
	z, got := new(big.Int), new(big.Int)
	want := nextPrimeBig(new(big.Int), z.SetInt64(lo))
	for v := lo; v < hi; v++ {
		z.SetInt64(v)
		if want.Int64() <= v {
			nextPrimeBig(want, z)
		}
		if NextPrime(got, z).Cmp(want) != 0 {
			t.Fatalf("NextPrime(%d) = %v, reference %v", v, got, want)
		}
	}
}

func TestNextPrimeMatchesReferenceDense(t *testing.T) {
	checkRange(t, -5, 1<<20)
}

// The last 10^5 values below 2^62 are the top of the word path; their
// answers lie above 2^62, where Work leaves the word path.
func TestNextPrimeMatchesReferenceBelowWordLimit(t *testing.T) {
	checkRange(t, wordLimit-100000, wordLimit+1000)
}

func TestNextPrimeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := new(big.Int)
	for i := 0; i < 20000; i++ {
		n := 21 + i%42 // bit lengths 21..62
		v := rng.Uint64()>>(64-n) | 1<<(n-1)
		checkNextPrime(t, z.SetUint64(v))
	}
}

// strongPseudoprimes are the smallest strong pseudoprimes to the first
// 1, 2, ..., 9 prime bases (2047 to base 2 up to 3825123056546413051
// to bases 2..23), plus the one that bounds bases32.
var strongPseudoprimes = []uint64{
	2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
	341550071728321, 3825123056546413051, 4759123141,
}

// carmichaels are Carmichael numbers: composites that pass every
// Fermat test to a coprime base.
var carmichaels = []uint64{
	561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
	46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
	172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561,
	399001, 410041, 449065, 488881, 512461,
}

// chernick returns Carmichael numbers (6k+1)(12k+1)(18k+1) whose three
// factors are prime, with k in [lo, hi).
func chernick(lo, hi uint64) []uint64 {
	var out []uint64
	for k := lo; k < hi; k++ {
		a, b, c := 6*k+1, 12*k+1, 18*k+1
		if big.NewInt(int64(a)).ProbablyPrime(20) && big.NewInt(int64(b)).ProbablyPrime(20) && big.NewInt(int64(c)).ProbablyPrime(20) {
			out = append(out, a*b*c)
		}
	}
	return out
}

func hardComposites() []uint64 {
	out := append(append([]uint64(nil), strongPseudoprimes...), carmichaels...)
	out = append(out, chernick(1, 200)...)
	// The largest k keep a·b·c below 2^62.
	return append(out, chernick(140000, 145000)...)
}

func TestNextPrimeMatchesReferenceOnPseudoprimes(t *testing.T) {
	z := new(big.Int)
	for _, n := range hardComposites() {
		if isPrime64(n) {
			t.Fatalf("isPrime64(%d) = true for a composite", n)
		}
		for d := int64(-2); d <= 2; d++ {
			checkNextPrime(t, z.SetUint64(n).Add(z, big.NewInt(d)))
		}
	}
}

// TestBases32Bound pins the comment on bases32: 4759123141 is a strong
// pseudoprime to 2, 7 and 61 and lies above 2^32, where isPrime64
// switches to the twelve-prime bases.
func TestBases32Bound(t *testing.T) {
	const n = 4759123141
	if n <= 1<<32 {
		t.Fatal("bases32 bound is not above 2^32")
	}
	if !strongProbablePrime(n, bases32[:]) {
		t.Fatal("4759123141 is not a strong pseudoprime to 2, 7, 61")
	}
	z := new(big.Int)
	for v := uint64(1<<32 - 20001); v < 1<<32+20000; v++ {
		if got, want := isPrime64(v), z.SetUint64(v).ProbablyPrime(20); got != want {
			t.Fatalf("isPrime64(%d) = %v, reference %v", v, got, want)
		}
	}
}

func FuzzNextPrime(f *testing.F) {
	for _, v := range []int64{-5, 0, 1, 2, wordLimit - 1, wordLimit, 1<<63 - 1} {
		f.Add(v)
	}
	for _, n := range hardComposites() {
		f.Add(int64(n) - 2)
		f.Add(int64(n))
		f.Add(int64(n) + 2)
	}
	f.Fuzz(func(t *testing.T, z int64) {
		checkNextPrime(t, big.NewInt(z))
	})
}

// workReference is Work on math/big alone: the kernel before the word
// path.
func workReference(dst *Data, inputs []*Data, num int) {
	tmp := new(big.Int)
	for k := range dst.Words {
		sum := tmp.Set(dst.Words[k])
		for _, in := range inputs {
			sum.Add(sum, in.Words[k])
		}
		for step := 0; step < num; step++ {
			nextPrimeBig(sum, sum)
		}
		dst.Words[k].Set(sum)
	}
}

func TestWorkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	value := func() *big.Int {
		switch rng.Intn(10) {
		case 0: // two of these carry out of a word
			return new(big.Int).SetUint64(^uint64(0) - rng.Uint64()%8)
		case 1:
			return big.NewInt(-rng.Int63n(1 << 40))
		case 2: // multi-word
			return new(big.Int).Lsh(big.NewInt(rng.Int63n(1<<20)+1), 64)
		case 3: // a num > 1 chain crosses 2^62
			return new(big.Int).SetUint64(wordLimit - 1 - rng.Uint64()%200)
		default:
			return new(big.Int).SetUint64(rng.Uint64() >> (2 + rng.Intn(40)))
		}
	}
	data := func(size int) *Data {
		d := &Data{Words: make([]*big.Int, size)}
		for k := range d.Words {
			d.Words[k] = value()
		}
		return d
	}
	for trial := 0; trial < 300; trial++ {
		size := 1 + rng.Intn(3)
		dst := data(size)
		inputs := make([]*Data, rng.Intn(5))
		for i := range inputs {
			inputs[i] = data(size)
		}
		num := rng.Intn(4)
		want := dst.Clone()
		wantInputs := append([]*Data(nil), inputs...)
		if trial%10 == 0 && len(inputs) > 0 { // dst is also an input
			inputs[0], wantInputs[0] = dst, want
		}
		workReference(want, wantInputs, num)
		Work(dst, inputs, num)
		for k := range dst.Words {
			if dst.Words[k].Cmp(want.Words[k]) != 0 {
				t.Fatalf("trial %d element %d: Work = %v, reference %v", trial, k, dst.Words[k], want.Words[k])
			}
		}
	}
}

func TestWorkWordPathAllocatesNothing(t *testing.T) {
	m := NewMatrix(2, 4)
	dst, inputs := m.At(0, 0), []*Data{m.At(0, 1), m.At(1, 0), NewData(4, 9)}
	if a := testing.AllocsPerRun(100, func() { Work(dst, inputs, 2) }); a != 0 {
		t.Fatalf("Work allocates %v times per call on word-sized data", a)
	}
}

func TestMatrixReseedAllocatesNothing(t *testing.T) {
	m := NewMatrix(4, 3)
	Work(m.At(1, 1), []*Data{m.At(0, 0)}, 3)
	if a := testing.AllocsPerRun(10, func() { m.Reseed(7) }); a != 0 {
		t.Fatalf("Reseed allocates %v times per call", a)
	}
	if want := NewData(3, 7*0x100000001+5).Hash(); m.At(1, 1).Hash() != want {
		t.Fatal("Reseed in place differs from NewData")
	}
}
