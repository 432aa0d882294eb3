package workload

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSinusoidValidation(t *testing.T) {
	if _, err := Sinusoid(nil, nil, 10); err == nil {
		t.Error("empty base accepted")
	}
	if _, err := Sinusoid([]float64{10}, []float64{1, 2}, 10); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Sinusoid([]float64{10}, []float64{11}, 10); err == nil {
		t.Error("amplitude above base accepted (negative rates)")
	}
	if _, err := Sinusoid([]float64{10}, []float64{1}, 1); err == nil {
		t.Error("degenerate period accepted")
	}
}

func TestSinusoidShape(t *testing.T) {
	f, err := Sinusoid([]float64{100}, []float64{50}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := f(0, 0)[0]; math.Abs(got-100) > 1e-9 {
		t.Errorf("phase 0 rate = %v, want 100", got)
	}
	if got := f(2, 0)[0]; math.Abs(got-150) > 1e-9 { // quarter period: peak
		t.Errorf("peak rate = %v, want 150", got)
	}
	if got := f(6, 0)[0]; math.Abs(got-50) > 1e-9 { // three quarters: trough
		t.Errorf("trough rate = %v, want 50", got)
	}
	// Periodicity and non-negativity over several cycles.
	for slot := 0; slot < 64; slot++ {
		v := f(slot, 0)[0]
		if v < 0 {
			t.Fatalf("negative rate %v at slot %d", v, slot)
		}
		if w := f(slot+8, 0)[0]; math.Abs(v-w) > 1e-9 {
			t.Fatalf("not periodic: slot %d %v vs %v", slot, v, w)
		}
	}
}

func TestTrace(t *testing.T) {
	f, err := Trace([][]float64{{10, 20}, {30, 40}})
	if err != nil {
		t.Fatal(err)
	}
	if got := f(0, 5); got[0] != 10 || got[1] != 20 {
		t.Errorf("row 0 = %v", got)
	}
	if got := f(1, 0); got[0] != 30 {
		t.Errorf("row 1 = %v", got)
	}
	// Clamping beyond the trace end and below zero.
	if got := f(99, 0); got[1] != 40 {
		t.Errorf("clamped row = %v", got)
	}
	if got := f(-1, 0); got[0] != 10 {
		t.Errorf("negative slot row = %v", got)
	}
	if _, err := Trace(nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Trace([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged trace accepted")
	}
	if _, err := Trace([][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN trace accepted")
	}
}

func TestLoadTraceCSV(t *testing.T) {
	src := `# slot traces: two sources
50000, 20000
60000, 25000
40000, 15000
`
	f, err := LoadTraceCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := f(1, 0); got[0] != 60000 || got[1] != 25000 {
		t.Errorf("row 1 = %v", got)
	}
	if _, err := LoadTraceCSV(strings.NewReader("abc,1")); err == nil {
		t.Error("non-numeric CSV accepted")
	}
	if _, err := LoadTraceCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
}

func TestTraceTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		rows [][]float64
		want error
	}{
		{"no rows", nil, ErrTraceEmpty},
		{"empty rows", [][]float64{{}, {}}, ErrTraceEmpty},
		{"ragged", [][]float64{{1}, {1, 2}}, ErrTraceRagged},
		{"nan", [][]float64{{math.NaN()}}, ErrTraceBadValue},
		{"negative", [][]float64{{-5}}, ErrTraceBadValue},
		{"inf", [][]float64{{math.Inf(1)}}, ErrTraceBadValue},
	}
	for _, c := range cases {
		if _, err := Trace(c.rows); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestLoadTraceCSVTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want error
	}{
		{"empty", "", ErrTraceEmpty},
		{"comments only", "# nothing here\n", ErrTraceEmpty},
		{"ragged", "1,2\n3\n", ErrTraceRagged},
		{"non-numeric", "abc,1\n", ErrTraceBadValue},
		{"nan", "NaN,1\n", ErrTraceBadValue},
		{"negative", "-4,1\n", ErrTraceBadValue},
		{"inf", "Inf,1\n", ErrTraceBadValue},
	}
	for _, c := range cases {
		if _, err := LoadTraceCSV(strings.NewReader(c.src)); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestScale(t *testing.T) {
	base, err := Constant([]float64{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Scale(base, func(slot, _ int) float64 { return float64(slot + 1) })
	if err != nil {
		t.Fatal(err)
	}
	if got := f(2, 0); got[0] != 300 || got[1] != 600 {
		t.Errorf("scaled rates = %v, want [300 600]", got)
	}
	if _, err := Scale(nil, nil); err == nil {
		t.Error("nil base accepted")
	}
}

func TestBlackFridayShape(t *testing.T) {
	base, err := Constant([]float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	f, err := BlackFriday(base, 5, 4, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := f(4, 0)[0]; got != 1000 {
		t.Errorf("pre-event rate = %v", got)
	}
	// Smooth build: strictly increasing, never exceeding the plateau.
	prev := 1000.0
	for slot := 5; slot < 9; slot++ {
		got := f(slot, 0)[0]
		if got <= prev || got > 5000 {
			t.Errorf("build slot %d rate = %v (prev %v)", slot, got, prev)
		}
		prev = got
	}
	for slot := 9; slot < 12; slot++ {
		if got := f(slot, 0)[0]; got != 5000 {
			t.Errorf("plateau slot %d rate = %v, want 5000", slot, got)
		}
	}
	// Wind-down: strictly decreasing back to base.
	prev = 5000
	for slot := 12; slot < 16; slot++ {
		got := f(slot, 0)[0]
		if got >= prev || got < 1000 {
			t.Errorf("decay slot %d rate = %v (prev %v)", slot, got, prev)
		}
		prev = got
	}
	if got := f(16, 0)[0]; got != 1000 {
		t.Errorf("post-event rate = %v, want 1000", got)
	}

	if _, err := BlackFriday(base, 0, 0, 0, 0, 2); err == nil {
		t.Error("zero-length sale accepted")
	}
	if _, err := BlackFriday(base, 0, 1, 1, 1, math.Inf(1)); err == nil {
		t.Error("infinite peak accepted")
	}
}

func TestPhaseBoundariesEdges(t *testing.T) {
	base, err := Constant([]float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	// Zero-length horizon: no phases at all.
	if got := PhaseBoundaries(base, 0); got != nil {
		t.Errorf("zero-slot boundaries = %v, want nil", got)
	}
	// Single-slot spike: base → spike → base is three phases after the
	// mandatory slot-0 start.
	f, err := Scale(base, func(slot, _ int) float64 {
		if slot == 3 {
			return 4
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	got := PhaseBoundaries(f, 8)
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("spike boundaries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spike boundaries = %v, want %v", got, want)
		}
	}
	// Horizon ending inside the spike: the return-to-base boundary is
	// out of range and must not be reported.
	got = PhaseBoundaries(f, 4)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("truncated boundaries = %v, want [0 3]", got)
	}
}

// TestBufferedRateFuncs: Sinusoid and Scale refill one buffer per call
// instead of allocating a rate vector per simulated second, and
// PhaseBoundaries, which compares each slot's rates with the previous
// slot's, still sees every slot of a drifting profile as a new phase.
func TestBufferedRateFuncs(t *testing.T) {
	sin, err := Sinusoid([]float64{100, 40}, []float64{50, 10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Scale(sin, func(slot, _ int) float64 { return float64(1 + slot%3) })
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]RateFunc{"Sinusoid": sin, "Scale": scaled} {
		if n := testing.AllocsPerRun(100, func() { f(3, 7) }); n != 0 {
			t.Errorf("%s allocates %v per call", name, n)
		}
		if got := PhaseBoundaries(f, 4); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
			t.Errorf("%s: PhaseBoundaries = %v, want every slot", name, got)
		}
	}
	want := []float64{2 * (100 + 50*math.Sin(2*math.Pi/8)), 2 * (40 + 10*math.Sin(2*math.Pi/8))}
	if got := scaled(1, 0); got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Scale(Sinusoid)(1, 0) = %v, want %v", got, want)
	}
}
