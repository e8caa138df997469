package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every registered experiment in
// quick mode and sanity-checks the reports. This is the integration
// test that keeps the benchmark harness honest.
func TestAllExperimentsRunQuick(t *testing.T) {
	cfg := QuickConfig()
	for _, runner := range Registry {
		runner := runner
		t.Run(runner.ID, func(t *testing.T) {
			rep, err := runner.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", runner.ID, err)
			}
			if rep.ID != runner.ID {
				t.Errorf("report ID = %q, want %q", rep.ID, runner.ID)
			}
			if len(rep.Rows) == 0 {
				t.Error("report has no rows")
			}
			if len(rep.Headers) == 0 {
				t.Error("report has no headers")
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Headers) {
					t.Errorf("row width %d != header width %d: %v", len(row), len(rep.Headers), row)
				}
			}
			out := rep.String()
			if !strings.Contains(out, rep.Title) || !strings.Contains(out, rep.ID) {
				t.Error("String() missing title or id")
			}
		})
	}
}

// TestExperimentOutcomes asserts the shape claims the paper makes, on
// the quick configuration.
func TestExperimentOutcomes(t *testing.T) {
	cfg := QuickConfig()

	t.Run("E1-exact-match", func(t *testing.T) {
		rep, err := Run("E1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Rows {
			if row[len(row)-1] != "true" {
				t.Errorf("Table 1 row mismatch: %v", row)
			}
		}
	})

	t.Run("E2-ordering-holds", func(t *testing.T) {
		rep, err := Run("E2", cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Rows {
			if row[3] != "true" {
				t.Errorf("metric %s: U(A) <= U(B)", row[0])
			}
		}
	})

	t.Run("E5-halves-scans", func(t *testing.T) {
		rep, err := Run("E5", cfg)
		if err != nil {
			t.Fatal(err)
		}
		// separate scans = 2 × combined scans exactly: the target count
		// rides a view query's scan on both sides.
		for _, row := range rep.Rows {
			sep, err1 := strconv.Atoi(row[4])
			comb, err2 := strconv.Atoi(row[5])
			if err1 != nil || err2 != nil || comb == 0 || sep != 2*comb {
				t.Errorf("separate scans should be exactly twice the combined: %v", row)
			}
		}
	})

	t.Run("E7-results-stable", func(t *testing.T) {
		rep, err := Run("E7", cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Rows {
			if row[4] != "true" {
				t.Errorf("strategy %q changed the top view", row[0])
			}
		}
	})

	t.Run("E14-strong-plants-recovered", func(t *testing.T) {
		rep, err := Run("E14", cfg)
		if err != nil {
			t.Fatal(err)
		}
		last := rep.Rows[len(rep.Rows)-1] // strongest plant
		if last[1] != "1.00" {
			t.Errorf("strong planted views should be fully recovered: %v", last)
		}
	})
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("E99", QuickConfig()); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestHelpers(t *testing.T) {
	if j := jaccard([]string{"a", "b"}, []string{"b", "c"}); j != 1.0/3 {
		t.Errorf("jaccard = %v", j)
	}
	if j := jaccard(nil, nil); j != 1 {
		t.Errorf("empty jaccard = %v", j)
	}
	if j := jaccard([]string{"a"}, []string{"a", "a"}); j != 1 {
		t.Errorf("duplicate-tolerant jaccard = %v", j)
	}
	if k := kendallTau([]string{"a", "b", "c"}, []string{"a", "b", "c"}); k != 1 {
		t.Errorf("identical tau = %v", k)
	}
	if k := kendallTau([]string{"a", "b", "c"}, []string{"c", "b", "a"}); k != -1 {
		t.Errorf("reversed tau = %v", k)
	}
	if k := kendallTau([]string{"a"}, []string{"a"}); k != 1 {
		t.Errorf("singleton tau = %v", k)
	}
	if k := kendallTau([]string{"a", "x"}, []string{"y", "a"}); k != 1 {
		t.Errorf("disjoint-mostly tau = %v", k)
	}
}

func TestConfigDefaults(t *testing.T) {
	d := DefaultConfig()
	if d.Rows <= 0 || d.Quick {
		t.Errorf("DefaultConfig = %+v", d)
	}
	q := QuickConfig()
	if !q.Quick {
		t.Errorf("QuickConfig = %+v", q)
	}
	var zero Config
	if zero.rows(123) != 123 {
		t.Error("rows default wrong")
	}
	if (Config{Rows: 5}).rows(123) != 5 {
		t.Error("rows override wrong")
	}
}
