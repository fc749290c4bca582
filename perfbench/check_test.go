package main

import (
	"slices"
	"testing"

	"tcphack/internal/campaign"
)

func testRows() campaign.Results {
	return campaign.Results{
		{Campaign: "t", Point: campaign.Point{Index: 0, Seed: 1}, ModeName: "off", AggregateMbps: 100},
		{Campaign: "t", Point: campaign.Point{Index: 1, Seed: 1}, ModeName: "more-data", AggregateMbps: 120},
	}
}

func conservedSpans(n int) []pointSpan {
	spans := make([]pointSpan, n)
	for i := range spans {
		spans[i].conserved = true
	}
	return spans
}

func TestCheckerCountsTamperedRow(t *testing.T) {
	chk := newChecker()
	chk.check(testRows(), conservedSpans(2))
	if chk.failed != 0 {
		t.Fatalf("clean rows failed: %s", chk.summary())
	}
	tampered := testRows()
	tampered[1].AggregateMbps = 120.0000001
	chk.check(tampered, conservedSpans(2))
	if chk.attempted != 4 || chk.failed != 1 || chk.faults["not_reproducible"] != 1 {
		t.Errorf("attempted=%d failed=%d faults=%s, want 4, 1, not_reproducible=1",
			chk.attempted, chk.failed, chk.summary())
	}
	if got := chk.failedPct(); got != 25 {
		t.Errorf("failedPct = %g, want 25", got)
	}
}

func TestRowFaults(t *testing.T) {
	ok := testRows()[0]
	for _, tc := range []struct {
		name      string
		mutate    func(*campaign.Result)
		conserved bool
		want      []string
	}{
		{"clean", func(*campaign.Result) {}, true, nil},
		{"skipped", func(r *campaign.Result) { r.Skipped, r.AggregateMbps = true, 0 }, true, []string{"skipped", "zero_goodput"}},
		{"decomp", func(r *campaign.Result) { r.DecompFailures = 2 }, true, []string{"decomp_failures"}},
		{"airtime", func(*campaign.Result) {}, false, []string{"airtime_not_conserved"}},
	} {
		r := ok
		tc.mutate(&r)
		// Compare the row against itself so only the row's own faults show.
		got := rowFaults(r, []byte("x"), []byte("x"), tc.conserved)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: faults %v, want %v", tc.name, got, tc.want)
		}
	}
}
