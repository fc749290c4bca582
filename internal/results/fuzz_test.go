package results

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tcphack/internal/campaign"
)

// emitTableCSV re-emits a Table in the CSV shape ReadCSV reads: a
// campaign column, then every axis and metric column any row carries,
// floats in their shortest round-tripping form.
func emitTableCSV(t *Table) []byte {
	axes, metrics := map[string]bool{}, map[string]bool{}
	for _, r := range t.Rows {
		for k := range r.Axes {
			axes[k] = true
		}
		for k := range r.Metrics {
			metrics[k] = true
		}
	}
	header := []string{"campaign"}
	header = append(header, sortedKeys(axes)...)
	header = append(header, sortedKeys(metrics)...)
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(header)
	for _, r := range t.Rows {
		rec := []string{t.Campaign}
		for _, h := range header[1:] {
			switch {
			case axes[h]:
				rec = append(rec, r.Axes[h])
			case metrics[h]:
				v, ok := r.Metrics[h]
				if !ok {
					v = math.NaN() // a column this row lacked; see tablesEqual
				}
				rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		w.Write(rec)
	}
	w.Flush()
	return buf.Bytes()
}

// emitTableJSON re-emits a Table as campaign JSON rows: numeric axes
// as numbers, per-client goodputs as a list, extras as an object.
func emitTableJSON(t *Table) []byte {
	rows := make([]map[string]any, 0, len(t.Rows))
	for _, r := range t.Rows {
		m := map[string]any{"campaign": t.Campaign}
		for col, v := range r.Axes {
			if numericAxes[col] {
				f, _ := strconv.ParseFloat(v, 64)
				m[col] = f
			} else {
				m[col] = v
			}
		}
		var per []float64
		extra := map[string]float64{}
		for k, v := range r.Metrics {
			switch {
			case strings.HasPrefix(k, "per_client_mbps."):
				i, _ := strconv.Atoi(strings.TrimPrefix(k, "per_client_mbps."))
				for len(per) <= i {
					per = append(per, 0)
				}
				per[i] = v
			case strings.HasPrefix(k, "extra."):
				extra[strings.TrimPrefix(k, "extra.")] = v
			default:
				m[k] = v
			}
		}
		if per != nil {
			m["per_client_mbps"] = per
		}
		if len(extra) > 0 {
			m["extra"] = extra
		}
		rows = append(rows, m)
	}
	b, err := json.Marshal(rows)
	if err != nil {
		panic(err)
	}
	return b
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// tablesEqual compares two tables value by value, NaN equal to NaN. A
// metric missing from a row of a (CSV tables may leave a column out of
// some rows' maps) must be NaN or missing in b.
func tablesEqual(a, b *Table) error {
	if a.Campaign != b.Campaign || len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("campaign %q/%q, %d/%d rows", a.Campaign, b.Campaign, len(a.Rows), len(b.Rows))
	}
	same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if len(ra.Axes) != len(rb.Axes) {
			return fmt.Errorf("row %d: axes %v vs %v", i, ra.Axes, rb.Axes)
		}
		for k, v := range ra.Axes {
			if w, ok := rb.Axes[k]; !ok || w != v {
				return fmt.Errorf("row %d: axis %s %q vs %q", i, k, v, w)
			}
		}
		for k, v := range ra.Metrics {
			if w, ok := rb.Metrics[k]; !ok || !same(v, w) {
				return fmt.Errorf("row %d: metric %s %v vs %v", i, k, v, w)
			}
		}
		for k, w := range rb.Metrics {
			if _, ok := ra.Metrics[k]; !ok && !math.IsNaN(w) {
				return fmt.Errorf("row %d: extra metric %s=%v", i, k, w)
			}
		}
	}
	return nil
}

// seedResults is a small campaign output in the emitters' real shape.
func seedResults() campaign.Results {
	return campaign.Results{
		{Campaign: "seed", ModeName: "off", Point: campaign.Point{Clients: 2, Seed: 1}, RateKbps: 150000,
			AggregateMbps: 101.25, PerClientMbps: []float64{50.5, 50.75}, Collisions: 3,
			Extra: map[string]float64{"airtime_bss0_busy_pct": 88.5}},
		{Campaign: "seed", ModeName: "more-data", Point: campaign.Point{Clients: 2, Seed: 1, LossPct: 5, SNRdB: 22.5},
			AggregateMbps: 118, PerClientMbps: []float64{59, 59}},
		{Campaign: "seed", Skipped: true},
	}
}

// FuzzReadCSV: ReadCSV never panics, and a table it accepts survives a
// re-emit and re-read unchanged.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	seedResults().WriteCSV(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("mode,clients,x\noff,5.000,1\n"))
	f.Add([]byte("per_client_mbps,per_client_mbps.0\n1/2,3\n"))
	f.Add([]byte("a,a\n1,2\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tab, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		again, err := ReadCSV(bytes.NewReader(emitTableCSV(tab)))
		if err != nil {
			t.Fatalf("re-emitted table does not parse: %v", err)
		}
		if err := tablesEqual(tab, again); err != nil {
			t.Fatalf("round trip changed the table: %v", err)
		}
	})
}

// FuzzReadJSON: ReadJSON never panics, and a table it accepts survives
// a re-emit and re-read unchanged.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	seedResults().WriteJSON(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte(`[{"clients":"two","extra":{"x":"y"},"per_client_mbps":[1,null,"z"]}]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[null,{}]`))
	f.Fuzz(func(t *testing.T, in []byte) {
		tab, err := ReadJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		again, err := ReadJSON(bytes.NewReader(emitTableJSON(tab)))
		if err != nil {
			t.Fatalf("re-emitted table does not parse: %v", err)
		}
		if err := tablesEqual(tab, again); err != nil {
			t.Fatalf("round trip changed the table: %v", err)
		}
	})
}

// TestReadCSVRejectsDuplicates: a header naming a column twice, or a
// metric defined both by the per-client list and its own column, is an
// error — otherwise which value wins would depend on parse order.
func TestReadCSVRejectsDuplicates(t *testing.T) {
	for _, in := range []string{
		"aggregate_mbps,aggregate_mbps\n1,2\n",
		"per_client_mbps,per_client_mbps.1\n1/2,3\n",
	} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV accepted %q", in)
		}
	}
}
