package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPowerAndEnergy(t *testing.T) {
	t.Parallel()
	x := []complex128{1, complex(0, 2), complex(3, 4)}
	if e := Energy(x); math.Abs(e-(1+4+25)) > eps {
		t.Fatalf("energy %v", e)
	}
	if p := Power(x); math.Abs(p-10) > eps {
		t.Fatalf("power %v", p)
	}
	if p := Power(nil); p != 0 {
		t.Fatalf("power of empty = %v", p)
	}
}

func TestDBConversions(t *testing.T) {
	t.Parallel()
	for _, db := range []float64{-30, -10, 0, 3, 20} {
		if got := DB(FromDB(db)); math.Abs(got-db) > 1e-9 {
			t.Fatalf("db round trip %v -> %v", db, got)
		}
	}
}

func TestNormalizeUnitPower(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	x := randomVec(r, 500)
	Scale(x, 3.7)
	Normalize(x)
	if p := Power(x); math.Abs(p-1) > 1e-9 {
		t.Fatalf("normalized power %v", p)
	}
	// zero vector must not produce NaN
	z := make([]complex128, 4)
	Normalize(z)
	for _, v := range z {
		if v != 0 {
			t.Fatal("normalize of zero vector changed values")
		}
	}
}

func TestAddSubOffsets(t *testing.T) {
	t.Parallel()
	dst := make([]complex128, 5)
	Add(dst, []complex128{1, 2, 3}, 1)
	want := []complex128{0, 1, 2, 3, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Add got %v", dst)
		}
	}
	// clipping at the tail
	dst2 := make([]complex128, 3)
	Add(dst2, []complex128{1, 2, 3}, 2)
	if dst2[2] != 1 || dst2[0] != 0 {
		t.Fatalf("Add tail clip got %v", dst2)
	}
	// negative offset clips the head of src
	dst3 := make([]complex128, 3)
	Add(dst3, []complex128{1, 2, 3}, -1)
	if dst3[0] != 2 || dst3[1] != 3 || dst3[2] != 0 {
		t.Fatalf("Add negative offset got %v", dst3)
	}
	// Sub then Add must cancel
	dst4 := make([]complex128, 5)
	sig := []complex128{1, complex(2, -1), 3}
	Add(dst4, sig, 1)
	Sub(dst4, sig, 1)
	for _, v := range dst4 {
		if v != 0 {
			t.Fatalf("Add/Sub did not cancel: %v", dst4)
		}
	}
}

func TestMixShiftsSpectrum(t *testing.T) {
	t.Parallel()
	const n, fs = 4096, 1e6
	x := Tone(n, 10000, 0, fs)
	Mix(x, 50000, 0, fs)
	f := DominantFrequency(x, fs)
	if math.Abs(f-60000) > fs/n {
		t.Fatalf("mixed tone at %v Hz, want 60000", f)
	}
}

func TestMixRotatorAccuracy(t *testing.T) {
	t.Parallel()
	// After many samples the recursive rotator must still match the direct
	// computation closely (renormalization check).
	const n, fs, freq = 100000, 1e6, 12345.0
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	Mix(x, freq, 0.5, fs)
	for _, i := range []int{0, n / 2, n - 1} {
		ang := 2*math.Pi*freq*float64(i)/fs + 0.5
		s, c := math.Sincos(ang)
		if !approxEq(x[i], complex(c, s), 1e-6) {
			t.Fatalf("rotator drift at sample %d: %v vs %v", i, x[i], complex(c, s))
		}
	}
}

func TestToneFrequency(t *testing.T) {
	t.Parallel()
	const fs = 500e3
	x := Tone(2048, -42000, 0, fs)
	if p := Power(x); math.Abs(p-1) > 1e-9 {
		t.Fatalf("tone power %v", p)
	}
	f := DominantFrequency(x, fs)
	if math.Abs(f+42000) > fs/2048 {
		t.Fatalf("tone at %v, want -42000", f)
	}
}

func TestFreqDiscriminator(t *testing.T) {
	t.Parallel()
	const fs = 1e6
	for _, f := range []float64{25000, -60000} {
		x := Tone(1000, f, 0.3, fs)
		d := FreqDiscriminator(x, fs)
		for i, v := range d {
			if math.Abs(v-f) > 1 {
				t.Fatalf("f=%v: discriminator sample %d = %v", f, i, v)
			}
		}
	}
}

func TestMaxAbs(t *testing.T) {
	t.Parallel()
	x := []complex128{1, complex(0, -5), 2}
	idx, mag := MaxAbs(x)
	if idx != 1 || math.Abs(mag-5) > eps {
		t.Fatalf("MaxAbs = %d, %v", idx, mag)
	}
	if idx, _ := MaxAbs(nil); idx != -1 {
		t.Fatal("MaxAbs(nil) should return -1")
	}
}

func TestConjInvolution(t *testing.T) {
	t.Parallel()
	f := func(re, im float64) bool {
		x := []complex128{complex(re, im)}
		return Conj(Conj(x))[0] == x[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleComplex(t *testing.T) {
	t.Parallel()
	x := []complex128{1, complex(0, 1)}
	ScaleComplex(x, complex(0, 2))
	if x[0] != complex(0, 2) || x[1] != complex(-2, 0) {
		t.Fatalf("ScaleComplex got %v", x)
	}
}

func TestPhaseRange(t *testing.T) {
	t.Parallel()
	x := []complex128{1, complex(0, 1), -1, complex(0, -1)}
	ph := Phase(x)
	want := []float64{0, math.Pi / 2, math.Pi, -math.Pi / 2}
	for i := range want {
		if math.Abs(ph[i]-want[i]) > eps {
			t.Fatalf("phase[%d] = %v want %v", i, ph[i], want[i])
		}
	}
}

func TestDotUnequalLengths(t *testing.T) {
	t.Parallel()
	x := []complex128{1, 2i, 3, 4}
	y := []complex128{1i, 1, 2}
	// Σ x[i]·conj(y[i]) over the first three samples:
	// 1·(−i) + 2i·1 + 3·2 = 6 + i.
	want := complex(6, 1)
	if got := Dot(x, y); got != want {
		t.Fatalf("Dot(x, y) = %v, want %v", got, want)
	}
	// Swapping the operands conjugates the result.
	if got := Dot(y, x); got != complex(6, -1) {
		t.Fatalf("Dot(y, x) = %v, want %v", got, complex(6, -1))
	}
	if got := Dot(x, nil); got != 0 {
		t.Fatalf("Dot(x, nil) = %v, want 0", got)
	}
}
