// Package fixture is the dead-export guard's self-test: Dead.Close shares
// its name with the live Live.Close, Square.Area is reached only through
// the Shape interface, and the fields of Tally, tally, key and pair pin
// which uses read a field.
package fixture

// Live is used, and so is its Close method.
type Live struct{}

// Close is called by use.
func (Live) Close() error { return nil }

// Dead is used, but its Close method is not.
type Dead struct{}

// Close shares its name with Live.Close; nothing calls it.
func (Dead) Close() error { return nil }

// Shape is the interface Square's Area is called through.
type Shape interface{ Area() float64 }

// Square satisfies Shape.
type Square struct{ Side float64 }

// Area is called only through Shape.
func (q Square) Area() float64 { return q.Side * q.Side }

func total(shapes []Shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Tally's Read is read and Wire is JSON-encoded, so both are live. Set is
// only set (in a literal and an assignment), Bumped only incremented and
// op-assigned, Log only appended to itself and the unexported note only
// assigned, so all four are dead.
type Tally struct {
	Read   int
	Set    int
	Bumped int
	Log    []string
	Wire   int `json:"wire"`
	note   string
}

// tally is unexported, and its fields are checked all the same: seen is
// read, hits only incremented.
type tally struct {
	seen int
	hits int
}

// key's fields are read only as a map key, and pair's only through ==:
// comparing a struct reads every field, so all four are live.
type key struct{ a, b int }

type pair struct{ x, y int }

func compare(t *tally, m map[key]int, p, q pair) bool {
	t.hits++
	m[key{a: 1, b: 2}] = t.seen
	return p == q
}

func count(t *Tally) int {
	t.Set = 2
	t.Bumped++
	t.Bumped += 2
	t.Log = append(t.Log, "seen")
	t.Wire = t.Read
	t.note = "counted"
	return t.Read
}

func use() (float64, error) {
	_ = Dead{}
	_ = count(&Tally{Set: 1})
	_ = compare(&tally{}, map[key]int{}, pair{}, pair{x: 1})
	return total([]Shape{Square{Side: 2}}), Live{}.Close()
}
