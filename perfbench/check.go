package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"strings"

	"tcphack/internal/campaign"
)

// checker judges every row the benchmark produces. The first
// repetition's rows are the reference: every later row of the same
// grid point, traced or not, must match it byte for byte.
type checker struct {
	ref       [][]byte
	attempted int
	failed    int
	faults    map[string]int
}

func newChecker() *checker { return &checker{faults: make(map[string]int)} }

// rowFaults lists why one row fails its checks: got is the row's JSON,
// ref the reference JSON of the same grid point, conserved the traced
// run's airtime conservation (true when untraced).
func rowFaults(r campaign.Result, got, ref []byte, conserved bool) []string {
	var faults []string
	if r.Skipped {
		faults = append(faults, "skipped")
	}
	if !(r.AggregateMbps > 0) {
		faults = append(faults, "zero_goodput")
	}
	if r.DecompFailures != 0 {
		faults = append(faults, "decomp_failures")
	}
	if !bytes.Equal(got, ref) {
		faults = append(faults, "not_reproducible")
	}
	if !conserved {
		faults = append(faults, "airtime_not_conserved")
	}
	return faults
}

// check judges one repetition's rows; spans carries each point's
// airtime conservation.
func (c *checker) check(rows campaign.Results, spans []pointSpan) {
	first := c.ref == nil
	if first {
		c.ref = make([][]byte, len(rows))
	}
	for i, r := range rows {
		c.attempted++
		got, err := json.Marshal(r)
		if err != nil {
			c.fail("unencodable")
			continue
		}
		if first {
			c.ref[i] = got
		}
		if f := rowFaults(r, got, c.ref[i], spans[i].conserved); len(f) > 0 {
			c.fail(f...)
		}
	}
}

// fail records one failed row attempt, counting each of its faults.
func (c *checker) fail(faults ...string) {
	c.failed++
	for _, f := range faults {
		c.faults[f]++
	}
}

// failedPct is the share of row attempts that failed a check, in %.
func (c *checker) failedPct() float64 {
	return 100 * ratio(float64(c.failed), float64(c.attempted))
}

// summary lists the fault counts as "name=count", sorted, or "none".
func (c *checker) summary() string {
	if len(c.faults) == 0 {
		return "none"
	}
	var parts []string
	for f, n := range c.faults {
		parts = append(parts, f+"="+strconv.Itoa(n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
