package main

import "testing"

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the definition the spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4, 7}, [3]float64{2.375, 4.0, 8.0}},
		{[]float64{10, 20}, [3]float64{7.5, 15.0, 22.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestLatHistQuantile checks the interpolated quantile on exact buckets
// and on the overflow list.
func TestLatHistQuantile(t *testing.T) {
	h := newLatHist()
	for i := 0; i < 100; i++ {
		h.add(1000)
	}
	if got := h.quantile(0.5); got < 1000 || got >= 1001 {
		t.Errorf("median of a constant 1000 ns sample = %v, want within [1000, 1001)", got)
	}
	h.add(histNs + 5)
	if got := h.quantile(1); got != histNs+5 {
		t.Errorf("max with one overflow sample = %v, want %d", got, histNs+5)
	}
}
