package campaign

import (
	"context"
	"errors"
	"math"
	"testing"

	"tcphack/internal/node"
	"tcphack/internal/sim"
)

// badSpecs lists one Spec per out-of-range field, each built directly
// (not through WireSpec), as a library caller would.
func badSpecs() []struct {
	field  string
	mutate func(*Spec)
} {
	return []struct {
		field  string
		mutate func(*Spec)
	}{
		{"clients", func(s *Spec) { s.Axes.Clients = []int{1, 0} }},
		{"clients", func(s *Spec) { s.Axes.Clients = []int{-3} }},
		{"loss", func(s *Spec) { s.Axes.Loss = []float64{-0.01} }},
		{"loss", func(s *Spec) { s.Axes.Loss = []float64{0, 1.5} }},
		{"loss", func(s *Spec) { s.Axes.Loss = []float64{math.NaN()} }},
		{"snr_db", func(s *Spec) { s.Axes.SNRsDB = []float64{math.NaN()} }},
		{"snr_db", func(s *Spec) { s.Axes.SNRsDB = []float64{20, math.Inf(-1)} }},
		{"warmup", func(s *Spec) { s.Warmup = -1 }},
		{"measure", func(s *Spec) { s.Measure = -sim.Millisecond }},
		{"duration", func(s *Spec) { s.Duration = -sim.Second }},
	}
}

// TestSpecValidateRejectsEachField: a directly built Spec with any bad
// field fails Validate with a *SpecError naming that field, and
// RunContext, RunPoints and Run reject it before any point is built.
func TestSpecValidateRejectsEachField(t *testing.T) {
	for _, tc := range badSpecs() {
		s := testSpec(1)
		tc.mutate(&s)
		built := 0
		s.Build = func(cfg node.Config) *node.Network { built++; return node.New(cfg) }

		err := s.Validate()
		var se *SpecError
		if !errors.As(err, &se) || se.Field != tc.field {
			t.Errorf("%s: Validate() = %v, want a *SpecError for %s", tc.field, err, tc.field)
			continue
		}
		if rows, err := RunContext(context.Background(), s); !errors.As(err, &se) || rows != nil {
			t.Errorf("%s: RunContext = %d rows, %v; want no rows and the SpecError", tc.field, len(rows), err)
		}
		if rows, err := RunPoints(context.Background(), s, []int{0}); !errors.As(err, &se) || rows != nil {
			t.Errorf("%s: RunPoints = %d rows, %v; want no rows and the SpecError", tc.field, len(rows), err)
		}
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: Run accepted the spec", tc.field)
				}
			}()
			Run(s)
		}()
		if built != 0 {
			t.Errorf("%s: %d networks built for an invalid spec", tc.field, built)
		}
	}
}

// TestSpecValidateAcceptsBoundaries: the range ends themselves are
// valid input.
func TestSpecValidateAcceptsBoundaries(t *testing.T) {
	s := testSpec(1)
	s.Axes.Clients = []int{1}
	s.Axes.Loss = []float64{0, 1}
	s.Axes.SNRsDB = []float64{-5, 0, 40}
	s.Warmup, s.Measure = 0, 0
	if err := s.Validate(); err != nil {
		t.Errorf("boundary values rejected: %v", err)
	}
}
