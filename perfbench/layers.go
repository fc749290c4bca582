package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"tcphack/internal/campaign"
	"tcphack/internal/dist"
	"tcphack/internal/results"
)

// Timed calls into results and dist repeat this often; the median is
// reported.
const (
	layerCallRounds = 20
	storeRounds     = 3
)

// timeCalls runs fn rounds times and returns the median duration in
// the given unit.
func timeCalls(rounds int, unit time.Duration, fn func() error) (float64, error) {
	ds := make([]float64, 0, rounds)
	for range rounds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start))/float64(unit))
	}
	return median(ds), nil
}

// timeWireLayers times the results and dist layers on one
// repetition's rows: building a table, aggregating it, comparing it
// against a baseline of itself, emitting JSON, planning the grid
// against an empty and a filled file-dir store, and the store's Put and
// Get. The store lives in a temporary directory under scratch. It also
// returns how many rows a store round trip changed.
func timeWireLayers(w *campaign.WireSpec, rows campaign.Results, scratch string) (map[string]float64, int, error) {
	out := make(map[string]float64)
	var err error
	var table *results.Table
	if out["results.table_ms"], err = timeCalls(layerCallRounds, time.Millisecond, func() error {
		table = results.FromResults(rows)
		return nil
	}); err != nil {
		return nil, 0, err
	}
	groupBy := slices.DeleteFunc(w.SweptAxes(), func(a string) bool { return a == "seed" })
	var agg *results.Agg
	if out["results.aggregate_ms"], err = timeCalls(layerCallRounds, time.Millisecond, func() (err error) {
		agg, err = table.Aggregate(groupBy...)
		return err
	}); err != nil {
		return nil, 0, err
	}
	base := results.NewBaseline(agg)
	if out["results.compare_ms"], err = timeCalls(layerCallRounds, time.Millisecond, func() error {
		_, err := results.Compare(agg, base, results.DefaultTolerances())
		return err
	}); err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if out["results.emit_json_ms"], err = timeCalls(layerCallRounds, time.Millisecond, func() error {
		buf.Reset()
		return rows.WriteJSON(&buf)
	}); err != nil {
		return nil, 0, err
	}

	dir, err := os.MkdirTemp(scratch, "perfbench-store-")
	if err != nil {
		return nil, 0, fmt.Errorf("store dir: %w", err)
	}
	defer os.RemoveAll(dir)
	empty, err := dist.NewDirStore(filepath.Join(dir, "empty"))
	if err != nil {
		return nil, 0, err
	}
	var plan *dist.Plan
	if out["dist.plan_cold_ms"], err = timeCalls(layerCallRounds, time.Millisecond, func() (err error) {
		plan, err = dist.NewPlan(*w, empty, results.CodeVersion, 0)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if plan.Cached != 0 {
		return nil, 0, fmt.Errorf("empty store served %d cached points", plan.Cached)
	}

	filled, err := dist.NewDirStore(filepath.Join(dir, "filled"))
	if err != nil {
		return nil, 0, err
	}
	var puts, gets []float64
	for range storeRounds {
		for _, pp := range plan.Points {
			start := time.Now()
			if err := filled.Put(pp.Fingerprint, rows[pp.Index]); err != nil {
				return nil, 0, err
			}
			puts = append(puts, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	for range storeRounds {
		for _, pp := range plan.Points {
			start := time.Now()
			if _, err := filled.Get(pp.Fingerprint); err != nil {
				return nil, 0, err
			}
			gets = append(gets, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	out["dist.store_put_us_p50"] = median(puts)
	out["dist.store_get_us_p50"] = median(gets)

	if out["dist.plan_warm_ms"], err = timeCalls(layerCallRounds, time.Millisecond, func() (err error) {
		plan, err = dist.NewPlan(*w, filled, results.CodeVersion, 0)
		return err
	}); err != nil {
		return nil, 0, err
	}
	changed := 0
	for _, pp := range plan.Points {
		want, _ := json.Marshal(rows[pp.Index])
		got, _ := json.Marshal(pp.Result)
		if !pp.Cached || !bytes.Equal(got, want) {
			changed++
		}
	}
	return out, changed, nil
}
