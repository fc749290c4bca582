package results

import "testing"

// TestTCritical95 pins the Student-t critical values at the sample
// sizes campaigns actually use and the table's fall-off behaviour.
func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{0, 0},       // undefined: single observation, no interval
		{1, 12.706},  // n=2, the worst case the normal approx hid
		{2, 4.303},   // n=3
		{4, 2.776},   // n=5, the paper's run count
		{30, 2.042},  // last exact table row
		{35, 2.021},  // coarse rows beyond the table
		{50, 2.000},  //
		{100, 1.980}, //
		{1000, 1.96}, // normal limit
	}
	for _, c := range cases {
		if got := TCritical95(c.df); got != c.want {
			t.Errorf("TCritical95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	// Monotone non-increasing in df: more data never widens the interval.
	prev := TCritical95(1)
	for df := 2; df <= 200; df++ {
		cur := TCritical95(df)
		if cur > prev {
			t.Fatalf("TCritical95 not monotone at df=%d: %v > %v", df, cur, prev)
		}
		prev = cur
	}
}
