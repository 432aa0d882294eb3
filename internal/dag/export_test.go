package dag

// TopoOrder exposes the evaluation order to the external test package, so
// its tape oracle sums sink inflows in the same order EvaluateInto does.
func TopoOrder(g *Graph) []NodeID { return g.topo }
