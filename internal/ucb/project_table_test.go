package ucb

import (
	"math"
	"slices"
	"testing"

	"dragster/internal/stats"
)

// TestProjectTasksEdgeTable drives the budget projection through its
// degenerate corners: a budget with zero slack (exactly minTasks per
// operator), budgets below the floor, zero/invalid budgets, and
// single-operator jobs.
func TestProjectTasksEdgeTable(t *testing.T) {
	flat := func(int, int) float64 { return 1 }
	cases := []struct {
		name     string
		desired  []int
		budget   int
		minTasks int
		want     []int
		wantErr  bool
	}{
		{
			name:     "zero-slack-budget-pins-everything-to-min",
			desired:  []int{8, 5, 3},
			budget:   3,
			minTasks: 1,
			want:     []int{1, 1, 1},
		},
		{
			name:     "zero-budget-infeasible",
			desired:  []int{2},
			budget:   0,
			minTasks: 1,
			wantErr:  true,
		},
		{
			name:     "budget-below-floor-infeasible",
			desired:  []int{4, 4},
			budget:   3,
			minTasks: 2,
			wantErr:  true,
		},
		{
			name:     "min-tasks-zero-rejected",
			desired:  []int{2},
			budget:   2,
			minTasks: 0,
			wantErr:  true,
		},
		{
			name:     "single-operator-squeezed",
			desired:  []int{9},
			budget:   4,
			minTasks: 1,
			want:     []int{4},
		},
		{
			name:     "single-operator-at-exact-budget",
			desired:  []int{4},
			budget:   4,
			minTasks: 1,
			want:     []int{4},
		},
		{
			name:     "desired-below-min-raised",
			desired:  []int{0, 6},
			budget:   10,
			minTasks: 2,
			want:     []int{2, 6},
		},
		{
			name:     "empty-job-trivially-feasible",
			desired:  nil,
			budget:   0,
			minTasks: 1,
			want:     nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := projectCopy(tc.desired, tc.budget, tc.minTasks, flat)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("infeasible projection accepted: %v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			total := 0
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
				total += got[i]
			}
			if total > tc.budget {
				t.Fatalf("projection %v exceeds budget %d", got, tc.budget)
			}
		})
	}
}

// projectTasksRecomputing is the reference projection: every trim
// re-evaluates the loss of every operator above the floor and takes the
// first strict minimum.
func projectTasksRecomputing(desired []int, budget, minTasks int, loss func(op, fromTasks int) float64) []int {
	out := append([]int(nil), desired...)
	total := 0
	for i, v := range out {
		if v < minTasks {
			out[i] = minTasks
		}
		total += out[i]
	}
	for total > budget {
		best, bestLoss := -1, math.Inf(1)
		for i, v := range out {
			if v <= minTasks {
				continue
			}
			if l := loss(i, v); l < bestLoss {
				bestLoss, best = l, i
			}
		}
		if best == -1 {
			return nil
		}
		out[best]--
		total--
	}
	return out
}

// TestProjectTasksCachedLossesMatchRecomputing: on random loss tables —
// drawn from a small value set so ties are common — the cached
// projection returns exactly what recomputing every loss every step
// returns, and calls loss at most once per operator plus once per trim.
func TestProjectTasksCachedLossesMatchRecomputing(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(6)
		minTasks := 1 + rng.Intn(2)
		desired := make([]int, m)
		table := make([][]float64, m)
		total := 0
		for i := range desired {
			desired[i] = rng.Intn(12)
			table[i] = make([]float64, 13)
			for j := range table[i] {
				table[i][j] = float64(rng.Intn(4))
				if rng.Intn(20) == 0 {
					table[i][j] = math.Inf(1)
				}
			}
			total += max(desired[i], minTasks)
		}
		budget := minTasks*m + rng.Intn(total-minTasks*m+3)
		calls := 0
		loss := func(op, from int) float64 {
			calls++
			return table[op][from]
		}
		got, err := projectCopy(desired, budget, minTasks, loss)
		want := projectTasksRecomputing(desired, budget, minTasks, func(op, from int) float64 { return table[op][from] })
		if (err != nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("trial %d: ProjectTasks(%v, %d, %d) = %v, %v; recomputing gives %v",
				trial, desired, budget, minTasks, got, err, want)
		}
		if excess := max(total-budget, 0); calls > m+excess {
			t.Fatalf("trial %d: %d loss calls for %d operators and excess %d", trial, calls, m, excess)
		}
	}
}

// projectCopy runs ProjectTasks on a copy of desired, leaving desired
// as it was, and returns the projection (nil on error).
func projectCopy(desired []int, budget, minTasks int, loss func(op, fromTasks int) float64) ([]int, error) {
	out := slices.Clone(desired)
	if err := ProjectTasks(out, make([]float64, len(out)), budget, minTasks, loss); err != nil {
		return nil, err
	}
	return out, nil
}
