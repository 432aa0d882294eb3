package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(7)
	c1 := g.Split()
	c2 := g.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("split streams look correlated: %d/100 identical draws", same)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(1)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Normal(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Normal mean = %v, want ~3", mean)
	}
	if std := math.Sqrt(sumSq/n - mean*mean); math.Abs(std-2) > 0.05 {
		t.Errorf("Normal std = %v, want ~2", std)
	}
}

func TestNormalNegativeSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Normal with negative sigma did not panic")
		}
	}()
	NewRNG(1).Normal(0, -1)
}

func TestLogNormalPositive(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 1000; i++ {
		if v := g.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}
