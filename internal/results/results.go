package results

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"tcphack/internal/campaign"
)

// AxisColumns are the sweep-axis columns every row carries, in
// canonical order. They mirror the campaign emitters' column names.
var AxisColumns = []string{
	"mode", "clients", "seed", "rate_kbps", "adapter", "loss_pct", "snr_db",
	"topology",
}

// ScalarMetrics are the metric columns every campaign.Result provides.
// Rows may carry more: expanded per-client goodputs
// ("per_client_mbps.<i>") and campaign Extra metrics ("extra.<name>").
var ScalarMetrics = []string{
	"aggregate_mbps", "airtime_busy_pct", "collisions",
	"mpdus_sent", "mpdus_delivered", "retries", "queue_drops",
	"no_retry_pct", "decomp_failures", "flows_done", "flows_total",
}

// Num renders a float in the canonical axis-value form shared by every
// Table constructor: the shortest decimal string that round-trips, so
// "5", "0.05", and "22.5" — never "5.000". Callers use it to build
// group keys for Agg.Find.
func Num(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// Row is one simulated grid point: axis values as canonical strings,
// metrics as float64.
type Row struct {
	Axes    map[string]string
	Metrics map[string]float64
}

// Table is an ordered set of result rows from one campaign, ready for
// group-by aggregation. Skipped grid points are excluded at
// construction — they carry no measurements and would skew means.
type Table struct {
	Campaign string
	Rows     []Row
}

// FromResults builds a Table from in-memory campaign rows.
func FromResults(rs campaign.Results) *Table {
	t := &Table{}
	for _, r := range rs {
		if r.Skipped {
			continue
		}
		if t.Campaign == "" {
			t.Campaign = r.Campaign
		}
		row := Row{
			Axes: map[string]string{
				"mode":      r.ModeName,
				"clients":   Num(float64(r.Clients)),
				"seed":      Num(float64(r.Seed)),
				"rate_kbps": Num(float64(r.RateKbps)),
				"adapter":   r.Adapter,
				"loss_pct":  Num(r.LossPct),
				"snr_db":    Num(r.SNRdB),
				"topology":  r.Topology,
			},
			Metrics: map[string]float64{
				"aggregate_mbps":   r.AggregateMbps,
				"airtime_busy_pct": r.AirtimeBusyPct,
				"collisions":       float64(r.Collisions),
				"mpdus_sent":       float64(r.MPDUsSent),
				"mpdus_delivered":  float64(r.MPDUsDelivered),
				"retries":          float64(r.Retries),
				"queue_drops":      float64(r.QueueDrops),
				"no_retry_pct":     r.NoRetryPct,
				"decomp_failures":  float64(r.DecompFailures),
				"flows_done":       float64(r.FlowsDone),
				"flows_total":      float64(r.FlowsTotal),
			},
		}
		for i, v := range r.PerClientMbps {
			row.Metrics["per_client_mbps."+strconv.Itoa(i)] = v
		}
		for k, v := range r.Extra {
			row.Metrics["extra."+k] = v
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// isAxis reports whether col is a sweep-axis column.
func isAxis(col string) bool {
	for _, a := range AxisColumns {
		if a == col {
			return true
		}
	}
	return false
}

// numericAxes are the axis columns holding numbers; their values are
// re-canonicalized on load so "5.000" from a CSV emitter and "5" from
// FromResults land on the same group key.
var numericAxes = map[string]bool{
	"clients": true, "seed": true, "rate_kbps": true,
	"loss_pct": true, "snr_db": true,
}

// canonAxis normalizes one axis value to the FromResults form.
func canonAxis(col, raw string) (string, error) {
	if !numericAxes[col] {
		return raw, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return "", fmt.Errorf("results: bad %s value %q: %v", col, raw, err)
	}
	return Num(v), nil
}

// ReadCSV builds a Table from the campaign CSV emitter's output
// (WriteCSV). Axis values are canonicalized, the per_client_mbps
// column is expanded into per-index metrics, and skipped rows are
// dropped. Precision is bounded by the emitter's formatting (three
// decimals on goodputs). A header naming a column twice, or a row
// defining one metric twice (a per_client_mbps.<i> column alongside
// the per_client_mbps list), is an error.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("results: reading CSV header: %v", err)
	}
	col := make(map[string]int, len(header))
	for i, h := range header {
		if _, dup := col[h]; dup {
			return nil, fmt.Errorf("results: CSV header names column %q twice", h)
		}
		col[h] = i
	}
	t := &Table{}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("results: reading CSV row: %v", err)
		}
		if i, ok := col["skipped"]; ok && rec[i] == "true" {
			continue
		}
		row := Row{Axes: map[string]string{}, Metrics: map[string]float64{}}
		setMetric := func(name string, v float64) error {
			if _, dup := row.Metrics[name]; dup {
				return fmt.Errorf("results: CSV row defines metric %s twice", name)
			}
			row.Metrics[name] = v
			return nil
		}
		for i, name := range header {
			switch {
			case name == "campaign":
				if t.Campaign == "" {
					t.Campaign = rec[i]
				}
			case name == "index" || name == "skipped":
				// Ordering and skip state are not measurements.
			case name == "per_client_mbps":
				if rec[i] == "" {
					continue
				}
				for ci, s := range strings.Split(rec[i], "/") {
					v, err := strconv.ParseFloat(s, 64)
					if err != nil {
						return nil, fmt.Errorf("results: bad per_client_mbps %q: %v", rec[i], err)
					}
					if err := setMetric("per_client_mbps."+strconv.Itoa(ci), v); err != nil {
						return nil, err
					}
				}
			case isAxis(name):
				v, err := canonAxis(name, rec[i])
				if err != nil {
					return nil, err
				}
				row.Axes[name] = v
			default:
				v, err := strconv.ParseFloat(rec[i], 64)
				if err != nil {
					return nil, fmt.Errorf("results: bad metric %s=%q: %v", name, rec[i], err)
				}
				if err := setMetric(name, v); err != nil {
					return nil, err
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ReadJSON builds a Table from the campaign JSON emitter's output
// (WriteJSON). Unlike CSV, the round trip is lossless: float64 values
// survive JSON encoding exactly.
func ReadJSON(r io.Reader) (*Table, error) {
	var rows []map[string]any
	if err := json.NewDecoder(r).Decode(&rows); err != nil {
		return nil, fmt.Errorf("results: decoding JSON rows: %v", err)
	}
	t := &Table{}
	num := func(m map[string]any, key string) float64 {
		v, _ := m[key].(float64)
		return v
	}
	str := func(m map[string]any, key string) string {
		v, _ := m[key].(string)
		return v
	}
	for _, m := range rows {
		if skipped, _ := m["skipped"].(bool); skipped {
			continue
		}
		if t.Campaign == "" {
			t.Campaign = str(m, "campaign")
		}
		row := Row{Axes: map[string]string{}, Metrics: map[string]float64{}}
		for _, col := range AxisColumns {
			switch {
			case col == "mode" || col == "adapter" || col == "topology":
				row.Axes[col] = str(m, col)
			default:
				row.Axes[col] = Num(num(m, col))
			}
		}
		for _, metric := range ScalarMetrics {
			row.Metrics[metric] = num(m, metric)
		}
		if per, ok := m["per_client_mbps"].([]any); ok {
			for i, v := range per {
				f, _ := v.(float64)
				row.Metrics["per_client_mbps."+strconv.Itoa(i)] = f
			}
		}
		if extra, ok := m["extra"].(map[string]any); ok {
			for k, v := range extra {
				f, _ := v.(float64)
				row.Metrics["extra."+k] = f
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// SweptAxes returns the axis columns that take more than one distinct
// value across the table, excluding the seed axis — the natural
// group-by set: repetitions (seeds) aggregate within a group while
// every other swept dimension separates groups.
func (t *Table) SweptAxes() []string {
	var out []string
	for _, col := range AxisColumns {
		if col == "seed" {
			continue
		}
		distinct := map[string]bool{}
		for _, r := range t.Rows {
			distinct[r.Axes[col]] = true
		}
		if len(distinct) > 1 {
			out = append(out, col)
		}
	}
	return out
}

// axisValues returns the sorted distinct values of one axis column.
func (t *Table) axisValues(col string) []string {
	distinct := map[string]bool{}
	for _, r := range t.Rows {
		distinct[r.Axes[col]] = true
	}
	vals := make([]string, 0, len(distinct))
	for v := range distinct {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return axisLess(vals[i], vals[j]) })
	return vals
}

// axisLess orders axis values numerically when both parse as numbers
// (so clients 10 sorts after 2), lexically otherwise.
func axisLess(a, b string) bool {
	fa, ea := strconv.ParseFloat(a, 64)
	fb, eb := strconv.ParseFloat(b, 64)
	if ea == nil && eb == nil {
		if fa != fb {
			return fa < fb
		}
		return a < b
	}
	return a < b
}
