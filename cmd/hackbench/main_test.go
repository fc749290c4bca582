package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"tcphack"
)

func TestGroupInt(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, "0"}, {7, "7"}, {999, "999"}, {1000, "1,000"},
		{12345, "12,345"}, {123456, "123,456"}, {1234567, "1,234,567"},
		{1_000_000_000, "1,000,000,000"}, {-42, "-42"},
	} {
		if got := groupInt(tc.n); got != tc.want {
			t.Errorf("groupInt(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

// parseArgs runs args through hackbench's flag set and up-front
// validation, as main does.
func parseArgs(args ...string) (*cli, error) {
	fs := flag.NewFlagSet("hackbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return c, c.validate()
}

// TestSweepFlagsToWireAxes: each -sweep-* flag lands on its wire axis,
// with fields trimmed and the seeds derived from -seed and -runs, in
// local and wire modes alike.
func TestSweepFlagsToWireAxes(t *testing.T) {
	base := []string{"-sweep", "ht150-stock", "-warmup", "300ms", "-measure", "700ms"}
	for _, tc := range []struct {
		args []string
		want tcphack.WireCampaignAxes
	}{
		{nil, tcphack.WireCampaignAxes{Seeds: []int64{1}}},
		{[]string{"-sweep-modes", "off, more-data,timer"},
			tcphack.WireCampaignAxes{Modes: []string{"off", "more-data", "timer"}, Seeds: []int64{1}}},
		{[]string{"-sweep-clients", "1,2,10"},
			tcphack.WireCampaignAxes{Clients: []int{1, 2, 10}, Seeds: []int64{1}}},
		{[]string{"-sweep-loss", "0,0.05,1"},
			tcphack.WireCampaignAxes{Loss: []float64{0, 0.05, 1}, Seeds: []int64{1}}},
		{[]string{"-sweep-adapters", "fixed,fixed:a24,ideal,argmax,minstrel"},
			tcphack.WireCampaignAxes{Adapters: []string{"fixed", "fixed:a24", "ideal", "argmax", "minstrel"}, Seeds: []int64{1}}},
		{[]string{"-sweep-rates", "a54,mcs7,mcs3x2"},
			tcphack.WireCampaignAxes{Rates: []string{"a54", "mcs7", "mcs3x2"}, Seeds: []int64{1}}},
		{[]string{"-sweep-topologies", "default,2bss-overlap"},
			tcphack.WireCampaignAxes{Topologies: []string{"default", "2bss-overlap"}, Seeds: []int64{1}}},
		{[]string{"-runs", "3", "-seed", "7"},
			tcphack.WireCampaignAxes{Seeds: []int64{7, 8, 9}}},
		// The wire modes take the same sweep flags as a local run.
		{[]string{"-submit", "-sweep-topologies", "2bss-overlap", "-format", "json"},
			tcphack.WireCampaignAxes{Topologies: []string{"2bss-overlap"}, Seeds: []int64{1}}},
		{[]string{"-dry-run", "-sweep-modes", "more-data", "-format", "csv"},
			tcphack.WireCampaignAxes{Modes: []string{"more-data"}, Seeds: []int64{1}}},
	} {
		c, err := parseArgs(append(append([]string{}, base...), tc.args...)...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		w, spec, err := c.sweepSpec()
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if !reflect.DeepEqual(w.Axes, tc.want) {
			t.Errorf("%v: axes\n got  %+v\n want %+v", tc.args, w.Axes, tc.want)
		}
		if w.Scenario != "ht150-stock" || w.Warmup != 300*tcphack.Millisecond || w.Measure != 700*tcphack.Millisecond {
			t.Errorf("%v: spec header %+v", tc.args, w)
		}
		if spec.Name != "ht150-stock" || spec.Warmup != w.Warmup || spec.Measure != w.Measure {
			t.Errorf("%v: materialized spec %q warmup %v measure %v", tc.args, spec.Name, spec.Warmup, spec.Measure)
		}
	}
}

// TestSweepFlagErrors: bad flag values and combinations fail with an
// error, up front or at materialization, before anything simulates.
func TestSweepFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-sweep", "no-such-scenario"}, "unknown scenario"},
		{[]string{"-sweep", "ht150-stock", "-sweep-modes", "off,bogus"}, "unknown mode"},
		{[]string{"-sweep", "ht150-stock", "-sweep-rates", "z99"}, "z99"},
		{[]string{"-sweep", "ht150-stock", "-sweep-adapters", "telepathy"}, "telepathy"},
		{[]string{"-sweep", "ht150-stock", "-sweep-topologies", "moon-base"}, "unknown topology"},
		{[]string{"-sweep", "ht150-stock", "-sweep-clients", "two"}, "bad client count"},
		{[]string{"-sweep", "ht150-stock", "-sweep-clients", "1,-1"}, "client count -1"},
		{[]string{"-sweep", "ht150-stock", "-sweep-clients", "0"}, "client count 0"},
		{[]string{"-sweep", "ht150-stock", "-sweep-loss", "lots"}, "bad loss probability"},
		{[]string{"-sweep", "ht150-stock", "-sweep-loss", "1.5"}, "loss probability 1.5"},
		{[]string{"-sweep", "ht150-stock", "-sweep-loss", "-0.1"}, "loss probability -0.1"},
		{[]string{"-sweep", "ht150-stock", "-sweep-loss", "NaN"}, "loss probability NaN"},
		{[]string{"-sweep", "ht150-stock", "-runs", "0"}, "-runs 0"},
		{[]string{"-sweep", "ht150-stock", "-runs", "-1"}, "-runs -1"},
		{[]string{"-runs", "0", "-fig", "10"}, "-runs 0"},
		{[]string{"-sweep", "ht150-stock", "-format", "xml"}, "unknown -format"},
		{[]string{"-fig", "11", "-fig11-method", "guess"}, "unknown -fig11-method"},
		{[]string{"-sweep", "ht150-stock", "-geometry", "scalar"}, "unknown -geometry"},
		{[]string{"-sweep", "ht150-stock", "-submit", "-geometry", "pathloss"}, "local sweeps only"},
		{[]string{"-sweep", "ht150-stock", "-submit", "-trace"}, "local sweeps only"},
		{[]string{"-sweep", "ht150-stock", "-submit", "-airtime"}, "local sweeps only"},
		{[]string{"-sweep", "ht150-stock", "-dry-run", "-geometry", "pathloss"}, "local sweeps only"},
		{[]string{"-sweep", "ht150-stock", "-dry-run", "-trace"}, "local sweeps only"},
		{[]string{"-sweep", "ht150-stock", "-dry-run", "-airtime"}, "local sweeps only"},
	} {
		c, err := parseArgs(tc.args...)
		if err == nil {
			_, _, err = c.sweepSpec()
		}
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q, want it to mention %q", tc.args, err, tc.want)
		}
	}
}

// TestLocalSweepSpec: a local sweep is the wire spec plus the
// local-only settings, and -geometry pathloss edits only the base
// scenario.
func TestLocalSweepSpec(t *testing.T) {
	args := []string{"-sweep", "ht150-stock", "-sweep-modes", "off,more-data", "-runs", "2"}
	c, err := parseArgs(args...)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.localSweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Base.Geometry != nil {
		t.Errorf("no -geometry: base geometry %+v, want the scenario's own (nil)", plain.Base.Geometry)
	}
	if plain.Workers != 0 || plain.Airtime || plain.Trace != nil || plain.Progress != nil {
		t.Errorf("no local flags set, spec has workers=%d airtime=%v trace=%v progress=%v",
			plain.Workers, plain.Airtime, plain.Trace != nil, plain.Progress != nil)
	}

	c, err = parseArgs(append(args, "-geometry", "pathloss", "-workers", "3", "-airtime", "-progress")...)
	if err != nil {
		t.Fatal(err)
	}
	local, err := c.localSweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	if local.Base.Geometry == nil {
		t.Error("-geometry pathloss left Spec.Base.Geometry nil")
	}
	if local.Workers != 3 || !local.Airtime || local.Progress == nil {
		t.Errorf("local flags not applied: workers=%d airtime=%v progress=%v",
			local.Workers, local.Airtime, local.Progress != nil)
	}
	if !reflect.DeepEqual(local.Axes, plain.Axes) || local.Name != plain.Name {
		t.Errorf("local-only flags changed the grid: %+v vs %+v", local.Axes, plain.Axes)
	}
	if len(local.Points()) != 4 {
		t.Errorf("%d grid points, want 4", len(local.Points()))
	}
}
