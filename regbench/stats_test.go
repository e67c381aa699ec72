package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestQuartiles pins the exclusive method against values computed by
// Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25, 9, 7}, [3]float64{1.8125, 5.25, 8.5}},
		{[]float64{42}, [3]float64{42, 42, 42}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	if r := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(r, 5.5/5.5) {
		t.Errorf("relIQR = %v, want 1", r)
	}
}

// TestMannWhitney checks the U statistic and the tie- and
// continuity-corrected normal p-value against hand-computed cases.
func TestMannWhitney(t *testing.T) {
	// Disjoint samples: U = 0, mean 4.5, variance 9/12·7 = 5.25,
	// z = (4.5 − 0.5)/√5.25, p = erfc(z/√2).
	u, p := mannWhitney([]float64{1, 2, 3}, []float64{4, 5, 6})
	if u != 0 || !near(p, 0.0808555983700523) {
		t.Errorf("disjoint: U=%v p=%v, want 0 and 0.08086", u, p)
	}
	// Ties: ranks 1, 3, 3, 3, 5.5, 5.5, 7.5, 7.5, a's rank sum 12.5, so
	// U = 12.5 − 10 = 2.5; Σ(t³−t) = 24+6+6 = 36, variance
	// 16/12·(9 − 36/56) = 11.142857, z = (8 − 2.5 − 0.5)/√variance.
	u, p = mannWhitney([]float64{1, 2, 2, 3}, []float64{2, 3, 4, 4})
	if u != 2.5 || !near(p, 0.13416918012812581) {
		t.Errorf("ties: U=%v p=%v, want 2.5 and 0.13417", u, p)
	}
	// The test is symmetric in its p-value.
	if _, q := mannWhitney([]float64{2, 3, 4, 4}, []float64{1, 2, 2, 3}); !near(q, p) {
		t.Errorf("swapped samples: p=%v, want %v", q, p)
	}
	// All observations tied: no evidence of a difference.
	if _, p := mannWhitney([]float64{7, 7}, []float64{7, 7, 7}); p != 1 {
		t.Errorf("all tied: p=%v, want 1", p)
	}
	// Identical samples sit exactly at the mean: p = 1 after the
	// continuity correction.
	if _, p := mannWhitney([]float64{1, 2, 3}, []float64{1, 2, 3}); p != 1 {
		t.Errorf("identical: p=%v, want 1", p)
	}
}
