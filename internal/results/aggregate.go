package results

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stat summarizes one metric across the rows of one group.
type Stat struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// CI95 is the 95% confidence half-width of the mean using the
	// Student-t critical value for n-1 degrees of freedom
	// (t·σ/√n; 0 below two observations). Campaign groups typically
	// hold n ≤ 5 seeds, where the normal approximation's 1.96
	// understates the interval badly (t₀.₉₇₅ at 2 degrees of freedom
	// is 4.30).
	CI95 float64 `json:"ci95"`
}

// Group is one aggregation cell: the axis values it was grouped on
// (aligned with Agg.GroupBy) and a Stat per metric.
type Group struct {
	Key     []string        `json:"key"`
	N       int             `json:"n"`
	Metrics map[string]Stat `json:"metrics"`
}

// Mean returns the group's mean for one metric (0 when absent) — the
// common single-value read for report tables.
func (g *Group) Mean(metric string) float64 {
	return g.Metrics[metric].Mean
}

// Stat returns the full summary for one metric.
func (g *Group) Stat(metric string) (Stat, bool) {
	s, ok := g.Metrics[metric]
	return s, ok
}

// Agg is a grouped aggregation of a Table: one Group per distinct
// combination of the GroupBy columns, in deterministic (numeric-aware)
// key order.
type Agg struct {
	Campaign string `json:"campaign"`
	// Fingerprint identifies the sweep the aggregation came from (see
	// Table.Fingerprint); Compare checks it against a baseline's.
	Fingerprint string `json:"fingerprint"`
	// Axes is the sweep shape behind Fingerprint (Table.Shape),
	// persisted into baselines so mismatches can name the diverging
	// component.
	Axes    map[string][]string `json:"axes,omitempty"`
	GroupBy []string            `json:"group_by"`
	Groups  []Group             `json:"groups"`
}

// keySep joins group-key components; ASCII unit separator cannot occur
// in axis values.
const keySep = "\x1f"

// Aggregate groups the table's rows on the given axis columns and
// reduces every metric per group. With no columns the whole table
// collapses into a single group (the grand summary — e.g. a
// seeds-only sweep). Metrics absent from some rows (per-client columns
// across different client counts, optional extras) aggregate over the
// rows that carry them; each Stat's Count records how many.
func (t *Table) Aggregate(groupBy ...string) (*Agg, error) {
	for _, col := range groupBy {
		if !isAxis(col) {
			return nil, fmt.Errorf("results: unknown group-by column %q (axis columns: %s)",
				col, strings.Join(AxisColumns, ", "))
		}
	}
	type acc struct {
		key    []string
		n      int
		values map[string][]float64
	}
	cells := map[string]*acc{}
	for _, r := range t.Rows {
		key := make([]string, len(groupBy))
		for i, col := range groupBy {
			key[i] = r.Axes[col]
		}
		id := strings.Join(key, keySep)
		c, ok := cells[id]
		if !ok {
			c = &acc{key: key, values: map[string][]float64{}}
			cells[id] = c
		}
		c.n++
		for metric, v := range r.Metrics {
			c.values[metric] = append(c.values[metric], v)
		}
	}

	a := &Agg{
		Campaign:    t.Campaign,
		Fingerprint: t.Fingerprint(),
		Axes:        t.Shape(),
		GroupBy:     append([]string{}, groupBy...),
	}
	for _, c := range cells {
		g := Group{Key: c.key, N: c.n, Metrics: make(map[string]Stat, len(c.values))}
		for metric, vals := range c.values {
			g.Metrics[metric] = summarize(vals)
		}
		a.Groups = append(a.Groups, g)
	}
	sort.Slice(a.Groups, func(i, j int) bool {
		ki, kj := a.Groups[i].Key, a.Groups[j].Key
		for x := range ki {
			if ki[x] != kj[x] {
				return axisLess(ki[x], kj[x])
			}
		}
		return false
	})
	return a, nil
}

// summarize reduces one metric's observations into a Stat.
func summarize(vals []float64) Stat {
	s := Stat{Count: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.Count)
	if s.Count >= 2 {
		var sq float64
		for _, v := range vals {
			d := v - s.Mean
			sq += d * d
		}
		s.StdDev = math.Sqrt(sq / float64(s.Count-1))
		s.CI95 = TCritical95(s.Count-1) * s.StdDev / math.Sqrt(float64(s.Count))
	}
	return s
}

// tCritical95Table holds the two-sided 95% Student-t critical values
// for 1–30 degrees of freedom (standard statistical tables).
var tCritical95Table = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for
// df degrees of freedom (0 for df < 1, where no interval exists):
// exact table values through df=30, the standard coarse table rows
// (40, 60, 120) beyond, and the normal limit 1.96 for larger samples —
// at which point the difference from the exact quantile is under half
// a percent.
func TCritical95(df int) float64 {
	switch {
	case df < 1:
		return 0
	case df <= len(tCritical95Table):
		return tCritical95Table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	}
	return 1.96
}

// Find returns the group with exactly this key (values in GroupBy
// order, canonical form — use Num for numeric axes), or nil.
func (a *Agg) Find(key ...string) *Group {
	for i := range a.Groups {
		g := &a.Groups[i]
		if len(g.Key) != len(key) {
			continue
		}
		match := true
		for x := range key {
			if g.Key[x] != key[x] {
				match = false
				break
			}
		}
		if match {
			return g
		}
	}
	return nil
}

// MeanAt is Find followed by Mean, returning 0 when the group does not
// exist — the shape lookup tables in experiment runners want (a
// missing group is a skipped/hopeless grid point).
func (a *Agg) MeanAt(metric string, key ...string) float64 {
	if g := a.Find(key...); g != nil {
		return g.Mean(metric)
	}
	return 0
}

// StatAt is Find followed by Stat, for callers that also want the
// deviation (error bars on the paper's figures).
func (a *Agg) StatAt(metric string, key ...string) (Stat, bool) {
	if g := a.Find(key...); g != nil {
		return g.Stat(metric)
	}
	return Stat{}, false
}
