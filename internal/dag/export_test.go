package dag

// PatternEdges lists the operator out-edges in the order the branch
// pattern numbers them, each with its operator's dense index.
func PatternEdges(g *Graph) (edges []int32, ops []int) {
	for _, op := range g.opPlan {
		for _, ei := range op.succs {
			edges = append(edges, ei)
			ops = append(ops, op.index)
		}
	}
	return edges, ops
}

// SweptFlows returns the per-edge flows the last forward sweep on w left,
// the values the reverse sweep's capacity test reads.
func SweptFlows(w *Workspace) []float64 { return w.rep.flows }
