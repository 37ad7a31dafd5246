package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"mlfair/internal/netsim"
)

// checkSweepCSV checks one sweep's CSV table. With a golden it must
// match byte for byte; without one, it must hold one row per point and
// the invariants every sweep output obeys. reps[i] is point i's
// replication count: a bad row fails its point's replications, and a
// bad table fails them all.
func checkSweepCSV(got, golden []byte, reps []int) (failed int, problems []string) {
	all := 0
	for _, n := range reps {
		all += n
	}
	rows := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	if len(rows) != len(reps)+1 || !strings.HasSuffix(string(got), "\n") {
		return all, []string{fmt.Sprintf("%d table lines for %d points", len(rows)-1, len(reps))}
	}
	if golden != nil {
		want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
		if len(want) != len(rows) || rows[0] != want[0] {
			return all, []string{"table shape differs from the golden"}
		}
		for i := 1; i < len(rows); i++ {
			if rows[i] != want[i] {
				failed += reps[i-1]
				problems = append(problems, fmt.Sprintf("row %d differs from the golden", i))
			}
		}
		if failed == 0 && !bytes.Equal(got, golden) {
			return all, []string{"table bytes differ from the golden"}
		}
		return failed, problems
	}
	header := strings.Split(rows[0], ",")
	for i := 1; i < len(rows); i++ {
		if p := checkSweepRow(header, strings.Split(rows[i], ",")); p != "" {
			failed += reps[i-1]
			problems = append(problems, fmt.Sprintf("row %d: %s", i, p))
		}
	}
	return failed, problems
}

// checkSweepRow checks one row's statistics columns: for every metric
// m with columns m_mean, m_ci95, m_min, m_max, m_p50, every value is a
// finite non-negative number, min <= mean, p50 <= max, ci95 >= 0; a
// redundancy is at least 1 and a fraction of time at most 1.
func checkSweepRow(header, row []string) string {
	if len(row) != len(header) {
		return fmt.Sprintf("%d fields for %d columns", len(row), len(header))
	}
	vals := map[string]float64{}
	var metrics []string
	for c, name := range header {
		m, ok := strings.CutSuffix(name, "_mean")
		if ok {
			metrics = append(metrics, m)
		}
		if !strings.HasSuffix(name, "_mean") && !strings.HasSuffix(name, "_ci95") &&
			!strings.HasSuffix(name, "_min") && !strings.HasSuffix(name, "_max") && !strings.HasSuffix(name, "_p50") {
			continue // an axis coordinate
		}
		v, err := strconv.ParseFloat(row[c], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Sprintf("%s = %q is not a finite non-negative number", name, row[c])
		}
		vals[name] = v
	}
	if len(metrics) == 0 {
		return "no statistics columns"
	}
	const tol = 1e-9
	for _, m := range metrics {
		mean, lo, hi, p50 := vals[m+"_mean"], vals[m+"_min"], vals[m+"_max"], vals[m+"_p50"]
		switch {
		case lo > mean*(1+tol) || mean > hi*(1+tol) || lo > p50*(1+tol) || p50 > hi*(1+tol):
			return fmt.Sprintf("%s: min %g, mean %g, p50 %g, max %g are out of order", m, lo, mean, p50, hi)
		case strings.Contains(m, "redundancy") && lo < 1:
			return fmt.Sprintf("%s: redundancy %g below 1", m, lo)
		case strings.HasPrefix(m, "frac_") && hi > 1:
			return fmt.Sprintf("%s: fraction %g above 1", m, hi)
		}
	}
	return ""
}

// checkPlanetary checks one planetary run: the printed summary matches
// the golden byte for byte when there is one, holds one row per
// region, and the Result obeys the engine invariants: one rate per
// receiver, every session's mean level in [0, layers], no link
// dropping more packets than entered it, and every link redundancy at
// least 1 where a downstream receiver received.
func checkPlanetary(out, golden []byte, res *netsim.Result, regions, layers int) []string {
	var problems []string
	if golden != nil && !bytes.Equal(out, golden) {
		problems = append(problems, "output differs from the golden")
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n\n"), "\n")
	if h := slices.Index(lines, "region,protocol,receivers,mean_rate,ci95,best_rate"); h < 0 || len(lines)-h-1 != regions {
		problems = append(problems, fmt.Sprintf("summary does not hold one row for each of %d regions", regions))
	}
	if res == nil {
		return append(problems, "no Result")
	}
	if len(res.ReceiverRates) != regions || len(res.MeanLevels) != regions {
		problems = append(problems, fmt.Sprintf("Result holds %d sessions, want %d", len(res.ReceiverRates), regions))
	}
	for i, lv := range res.MeanLevels {
		if !(lv >= 0 && lv <= float64(layers)) {
			problems = append(problems, fmt.Sprintf("session %d mean level %g outside [0, %d]", i, lv, layers))
		}
	}
	for _, ls := range res.Links {
		if ls.Dropped > ls.Crossed {
			problems = append(problems, fmt.Sprintf("link %d drops %d of %d crossings", ls.Link, ls.Dropped, ls.Crossed))
			break
		}
		if ls.Redundancy != 0 && ls.Redundancy < 1 {
			problems = append(problems, fmt.Sprintf("link %d redundancy %g below 1", ls.Link, ls.Redundancy))
			break
		}
	}
	return problems
}
