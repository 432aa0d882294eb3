package workload

import (
	"reflect"
	"sync"
	"testing"

	"dragster/internal/streamsim"
)

// constructors are every exported Spec constructor, by the name its Spec
// carries.
var constructors = []struct {
	name string
	spec func() (*Spec, error)
}{
	{"wordcount", WordCount}, {"wordcount2d", WordCount2D}, {"group", Group},
	{"asyncio", AsyncIO}, {"join", Join}, {"window", Window}, {"yahoo", Yahoo},
}

func mustSpec(t testing.TB, f func() (*Spec, error)) *Spec {
	t.Helper()
	s, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConstructorsShareOnlyTheImmutableParts: two calls of a constructor
// return equal Specs over one *dag.Graph, each with Models, HighRates
// and LowRates slices of its own; ByName does the same for every kind
// All returns.
func TestConstructorsShareOnlyTheImmutableParts(t *testing.T) {
	check := func(name string, a, b *Spec) {
		t.Helper()
		if a == b {
			t.Errorf("%s: two calls returned one *Spec", name)
		}
		if a.Name != name {
			t.Errorf("%s: spec named %q", name, a.Name)
		}
		if a.Graph != b.Graph {
			t.Errorf("%s: two calls built two graphs", name)
		}
		if &a.Models[0] == &b.Models[0] || &a.HighRates[0] == &b.HighRates[0] || &a.LowRates[0] == &b.LowRates[0] {
			t.Errorf("%s: two calls share a Models, HighRates or LowRates array", name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two calls differ: %+v and %+v", name, a, b)
		}
	}
	for _, c := range constructors {
		check(c.name, mustSpec(t, c.spec), mustSpec(t, c.spec))
	}
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		byName := mustSpec(t, func() (*Spec, error) { return ByName(s.Name) })
		check(s.Name, s, byName)
	}
}

// TestChangingASpecLeavesTheNextCallIntact: a caller may change every
// field and slice element of the Spec it got; the next call of the
// constructor returns the spec as built. WordCount2D, built from a
// WordCount, leaves WordCount's name, models and box alone.
func TestChangingASpecLeavesTheNextCallIntact(t *testing.T) {
	other, err := streamsim.NewLinearCurve(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range constructors {
		want := mustSpec(t, c.spec)
		s := mustSpec(t, c.spec)
		s.Name, s.MaxTasks, s.YMax = "changed", 1, 1
		for i := range s.Models {
			s.Models[i] = other
		}
		for i := range s.HighRates {
			s.HighRates[i], s.LowRates[i] = -1, -1
		}
		if got := mustSpec(t, c.spec); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: after changing one spec the next call gives %+v, want %+v", c.name, got, want)
		}
	}
	mustSpec(t, WordCount2D)
	wc := mustSpec(t, WordCount)
	if wc.Name != "wordcount" || wc.YMax != 150000 {
		t.Errorf("WordCount is %q with YMax %v after WordCount2D", wc.Name, wc.YMax)
	}
	for i, m := range wc.Models {
		if _, ok := m.(streamsim.PowerCurve); !ok {
			t.Errorf("WordCount model %d is a %T after WordCount2D", i, m)
		}
	}
}

// TestConcurrentCallsReturnEqualSpecs calls every constructor and ByName
// from many goroutines at once, each evaluating the shared graph with its
// own spec; under -race this checks that the sharing is read-only.
func TestConcurrentCallsReturnEqualSpecs(t *testing.T) {
	want := make([]*Spec, len(constructors))
	for i, c := range constructors {
		want[i] = mustSpec(t, c.spec)
	}
	const goroutines = 16
	errs := make(chan string, goroutines*len(constructors))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range constructors {
				c := constructors[(k+g)%len(constructors)]
				s, err := c.spec()
				if g%2 == 1 && c.name != "wordcount2d" {
					s, err = ByName(c.name)
				}
				if err != nil {
					errs <- err.Error()
					continue
				}
				if !reflect.DeepEqual(s, want[(k+g)%len(constructors)]) {
					errs <- c.name + ": concurrent call returned a different spec"
					continue
				}
				caps := make([]float64, len(s.Models))
				for i, m := range s.Models {
					caps[i] = m.Capacity(s.MaxTasks)
				}
				if _, err := s.Graph.Evaluate(s.HighRates, caps); err != nil {
					errs <- err.Error()
				}
				s.HighRates[0] = 0 // the caller's own slice
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
