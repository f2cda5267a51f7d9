package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split(1)
	c2 := r.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split streams with different labels should differ")
	}
	// Splitting with the same label from the same parent state is stable.
	p1, p2 := New(7), New(7)
	if p1.Split(9).Uint64() != p2.Split(9).Uint64() {
		t.Fatal("split is not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) value %d count %d far from uniform", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("gaussian mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("gaussian variance %v too far from 1", variance)
	}
}

func TestComplexVariance(t *testing.T) {
	r := New(6)
	const n = 200000
	var power float64
	for i := 0; i < n; i++ {
		c := r.Complex()
		power += real(c)*real(c) + imag(c)*imag(c)
	}
	power /= n
	if math.Abs(power-1) > 0.02 {
		t.Fatalf("complex gaussian power %v, want ~1", power)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v, want ~1", mean)
	}
}

func TestBytesFills(t *testing.T) {
	r := New(11)
	p := make([]byte, 4096)
	r.Bytes(p)
	zero := 0
	for _, b := range p {
		if b == 0 {
			zero++
		}
	}
	// Expect ~16 zero bytes; 100+ would indicate broken filling.
	if zero > 100 {
		t.Fatalf("too many zero bytes: %d", zero)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
