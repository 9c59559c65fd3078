package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Errorf("N = %d, want 0", s.N)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if s.N != 9 {
		t.Errorf("N = %d, want 9", s.N)
	}
	if s.Min != 1 || s.Max != 9 {
		t.Errorf("min/max = %v/%v, want 1/9", s.Min, s.Max)
	}
	if s.Med != 5 {
		t.Errorf("median = %v, want 5", s.Med)
	}
	if s.Q1 != 3 || s.Q3 != 7 {
		t.Errorf("q1/q3 = %v/%v, want 3/7", s.Q1, s.Q3)
	}
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
}

func TestSummarizeWhiskersClippedToData(t *testing.T) {
	s := Summarize([]float64{10, 11, 12, 13, 100})
	if s.HighWhisker > s.Max {
		t.Errorf("high whisker %v above max %v", s.HighWhisker, s.Max)
	}
	if s.LowWhisker < s.Min {
		t.Errorf("low whisker %v below min %v", s.LowWhisker, s.Min)
	}
	// The outlier at 100 should be outside the high whisker.
	if s.HighWhisker >= 100 {
		t.Errorf("high whisker %v should exclude the 100 outlier", s.HighWhisker)
	}
}

func TestSummarizeOrderingInvariant(t *testing.T) {
	s := Summarize([]float64{5, 3, 8, 1, 9, 2, 7})
	if !(s.Min <= s.LowWhisker && s.LowWhisker <= s.Q1 && s.Q1 <= s.Med &&
		s.Med <= s.Q3 && s.Q3 <= s.HighWhisker && s.HighWhisker <= s.Max) {
		t.Errorf("summary ordering violated: %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	values := []float64{3, 1, 2}
	Summarize(values)
	if values[0] != 3 {
		t.Errorf("input mutated: %v", values)
	}
}

func TestBoxSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	out := s.String()
	for _, want := range []string{"n=3", "med=2.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q, missing %q", out, want)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
}

func TestSummarizeOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		values := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Summarize assumes differences of values are finite (a
				// documented limit of float64 itself); keep the domain
				// inside it.
				values = append(values, math.Mod(v, 1e300))
			}
		}
		if len(values) == 0 {
			return true
		}
		s := Summarize(values)
		return s.Min <= s.LowWhisker && s.LowWhisker <= s.Q1 &&
			s.Q1 <= s.Med && s.Med <= s.Q3 &&
			s.Q3 <= s.HighWhisker && s.HighWhisker <= s.Max &&
			s.Mean >= s.Min && s.Mean <= s.Max &&
			s.N == len(values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
