package dag

// PatternEdges lists the operator out-edges in branch-pattern order
// (plan order), each with its operator's dense index.
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

// BranchPattern recomputes, from the flows the last forward sweep on w
// left, which branch of min(α·y, h(e)) each operator out-edge took: bit b
// is set when the b-th edge in plan order has its capacity share α·y at
// or below the demand h evaluates to on the edge's input flows. It needs
// at most 64 operator out-edges.
func BranchPattern(g *Graph, w *Workspace, y []float64) uint64 {
	flows := w.rep.flows
	var pattern uint64
	var bit uint
	for _, op := range g.opPlan {
		in := make([]float64, len(op.preds))
		for k, ei := range op.preds {
			in[k] = flows[ei]
		}
		for _, ei := range op.succs {
			if g.alphaByID[ei]*y[op.index] <= g.hByID[ei].Eval(in) {
				pattern |= 1 << bit
			}
			bit++
		}
	}
	return pattern
}
