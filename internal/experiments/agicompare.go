package experiments

import (
	"repro/internal/stats"
	"repro/internal/workload"
)

// AGIRow compares pipeline organizations on one benchmark (paper Section 6,
// after Golden & Mudge 1994): the traditional 5-stage LUI pipeline, the
// AGI organization (dedicated address-generation stage), and the paper's
// answer — LUI with fast address calculation.
type AGIRow struct {
	Name  string
	Class workload.Class
	// Speedups over the LUI baseline (values < 1 are slowdowns).
	AGI   float64
	FAC   float64 // hardware-only FAC on the LUI pipeline
	FACSW float64 // FAC plus software support
}

// AGIResult is the full comparison.
type AGIResult struct {
	Rows   []AGIRow
	IntAvg [3]float64
	FPAvg  [3]float64
}

// AGIRuns lists the timing runs CompareAGI reads.
func AGIRuns() []Run {
	return grid([][2]string{
		{"base", string(MBase32)}, {"base", string(MAGI)},
		{"base", string(MFAC32)}, {"fac", string(MFAC32)},
	})
}

// CompareAGI measures the two pipeline organizations against fast address
// calculation.
func (s *Suite) CompareAGI() (*AGIResult, error) {
	if err := s.Prefetch(AGIRuns()); err != nil {
		return nil, err
	}
	res := &AGIResult{}
	var ints, fps []AGIRow
	for _, w := range workload.All() {
		base, err := s.Timing(w, "base", MBase32)
		if err != nil {
			return nil, err
		}
		agi, err := s.Timing(w, "base", MAGI)
		if err != nil {
			return nil, err
		}
		hw, err := s.Timing(w, "base", MFAC32)
		if err != nil {
			return nil, err
		}
		hwsw, err := s.Timing(w, "fac", MFAC32)
		if err != nil {
			return nil, err
		}
		row := AGIRow{
			Name: w.Name, Class: w.Class,
			AGI:   float64(base.Cycles) / float64(agi.Cycles),
			FAC:   float64(base.Cycles) / float64(hw.Cycles),
			FACSW: float64(base.Cycles) / float64(hwsw.Cycles),
		}
		res.Rows = append(res.Rows, row)
		if w.Class == workload.Int {
			ints = append(ints, row)
		} else {
			fps = append(fps, row)
		}
	}
	avg := func(rows []AGIRow, weights func(AGIRow) float64) [3]float64 {
		var a, f, fs, ws []float64
		for _, r := range rows {
			a = append(a, r.AGI)
			f = append(f, r.FAC)
			fs = append(fs, r.FACSW)
			ws = append(ws, weights(r))
		}
		return [3]float64{
			stats.WeightedMean(a, ws), stats.WeightedMean(f, ws), stats.WeightedMean(fs, ws),
		}
	}
	weight := func(r AGIRow) float64 { return 1 } // unweighted: cycles unavailable per row here
	res.IntAvg = avg(ints, weight)
	res.FPAvg = avg(fps, weight)
	return res, nil
}

// Table renders the comparison as text.
func (r *AGIResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Pipeline organizations: AGI (Jouppi) vs. fast address calculation, speedup over the LUI baseline",
		Headers: []string{"benchmark", "class", "AGI", "FAC (H/W)", "FAC (H/W+S/W)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Class, stats.F3(row.AGI), stats.F3(row.FAC), stats.F3(row.FACSW))
	}
	t.AddRow("Int-Avg", "int", stats.F3(r.IntAvg[0]), stats.F3(r.IntAvg[1]), stats.F3(r.IntAvg[2]))
	t.AddRow("FP-Avg", "fp", stats.F3(r.FPAvg[0]), stats.F3(r.FPAvg[1]), stats.F3(r.FPAvg[2]))
	return t
}
