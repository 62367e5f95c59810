package chortle

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"chortle/internal/bench"
	"chortle/internal/opt"
	"chortle/internal/verify"
)

// The comparison harness that regenerates the paper's Tables 1-4: for
// each MCNC-profile benchmark, optimize with the mini-MIS script, map
// with both the MIS-style baseline and Chortle, and report LUT counts,
// percentage difference and wall-clock times — the same columns the
// paper prints ("# tables MIS", "# tables Chortle", "%", "t (sec.)").

// Row is one benchmark line of a comparison table. Beside the MIS
// baseline it carries one column group per compared engine (the tree
// DP under the paper's "Chortle" name, and the priority-cut DAG
// mapper), each with LUT count, circuit depth and wall time — depth is
// reported per engine so an area win cannot silently hide a depth
// regression.
type Row struct {
	Circuit  string
	MISLUTs  int
	MISDepth int
	MISTime  time.Duration

	// ChortleLUTs/ChortleDepth/ChortleTime are the tree engine's
	// columns; DiffPct is the paper's "%" column: how many fewer LUTs
	// the tree engine used, as a percentage of the MIS count
	// (positive = Chortle wins). Zero when the run excluded the tree
	// engine (CompareOptions.Engines).
	ChortleLUTs  int
	ChortleDepth int
	DiffPct      float64
	ChortleTime  time.Duration

	// CutLUTs/CutDepth/CutDiffPct/CutTime are the priority-cut
	// engine's columns, with the same conventions. Zero when the run
	// excluded the cut engine.
	CutLUTs    int
	CutDepth   int
	CutDiffPct float64
	CutTime    time.Duration

	Synthetic bool
	// Report carries the primary engine run's aggregated observability
	// report when CompareOptions.Stats is set (nil otherwise). The
	// primary engine is the first in CompareOptions.Engines.
	Report *MapReport
}

// Cols returns the row's column group for one engine. ok is false for
// EngineMIS (the baseline has no diff column) only when e is unknown.
func (r Row) Cols(e Engine) (luts, depth int, diff float64, t time.Duration, ok bool) {
	switch e {
	case EngineTree:
		return r.ChortleLUTs, r.ChortleDepth, r.DiffPct, r.ChortleTime, true
	case EngineCut:
		return r.CutLUTs, r.CutDepth, r.CutDiffPct, r.CutTime, true
	case EngineMIS:
		return r.MISLUTs, r.MISDepth, 0, r.MISTime, true
	}
	return 0, 0, 0, 0, false
}

// Table is a full comparison table for one K.
type Table struct {
	K int
	// Engines lists the engines compared against the MIS baseline, in
	// column order; the first is the primary engine the summary
	// figures quote.
	Engines []Engine
	Rows    []Row
}

// primary returns the engine the summary statistics quote.
func (t Table) primary() Engine {
	if len(t.Engines) == 0 {
		return EngineTree
	}
	return t.Engines[0]
}

// AverageDiffPct is the mean of the primary engine's per-circuit
// percentage differences, the figure the paper quotes per K
// (≈0%, 6%, 9%, 14% for K = 2..5 with the tree engine).
func (t Table) AverageDiffPct() float64 { return t.averageDiffPct(t.primary()) }

func (t Table) averageDiffPct(e Engine) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range t.Rows {
		_, _, diff, _, _ := r.Cols(e)
		sum += diff
	}
	return sum / float64(len(t.Rows))
}

// SpeedupRange returns the min and max primary-engine-vs-MIS speed
// ratios (MIS time / engine time) across the table's rows — the paper
// claims 1x to 10x for the tree engine.
func (t Table) SpeedupRange() (lo, hi float64) {
	lo, hi = -1, -1
	for _, r := range t.Rows {
		_, _, _, et, _ := r.Cols(t.primary())
		if et <= 0 {
			continue
		}
		s := float64(r.MISTime) / float64(et)
		if lo < 0 || s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return lo, hi
}

// CompareOptions tunes a comparison run.
type CompareOptions struct {
	// Circuits restricts the run to the named benchmarks (nil = all 12).
	Circuits []string
	// Verify cross-checks both mapped circuits against the optimized
	// network by simulation (adds runtime; on by default in the CLI).
	Verify bool
	// VerifyPatterns is the number of random 64-pattern blocks used for
	// circuits too wide for exhaustive checking (default 16).
	VerifyPatterns int
	// Timeout is a hard per-circuit wall-clock limit on the Chortle
	// mapping (0 = none). A circuit that exceeds it fails the run with
	// context.DeadlineExceeded.
	Timeout time.Duration
	// Budget bounds the per-tree exhaustive search in DP work units
	// (0 = unlimited). Over-budget trees degrade to bin packing; the
	// comparison still verifies and reports them, so a budgeted table
	// is an upper bound on Chortle's LUT counts.
	Budget int64
	// Stats attaches an observer to every Chortle mapping and stores the
	// aggregated report in Row.Report (phase times, memo hit rates,
	// degradations). Observation never changes the mapped circuit, but
	// the collector adds a little overhead to ChortleTime.
	Stats bool
	// Observer, when non-nil, additionally receives every primary-
	// engine mapping's event stream (all circuits, in row order) — the
	// CLI's -trace sink. Composes with Stats.
	Observer Observer
	// Engines lists the engines to map beside the MIS baseline, in
	// column order; nil means tree then cut. The MIS baseline is
	// always the reference column and cannot appear in the list. The
	// first engine is primary: Stats, Observer, Timeout-sensitive
	// summary figures and Row.Report attach to it.
	Engines []Engine
}

// engines resolves the engine list.
func (o CompareOptions) engines() ([]Engine, error) {
	if len(o.Engines) == 0 {
		return []Engine{EngineTree, EngineCut}, nil
	}
	for _, e := range o.Engines {
		if e == EngineMIS {
			return nil, fmt.Errorf("chortle: the MIS baseline is always the reference column; compare tree and/or cut engines against it")
		}
	}
	return o.Engines, nil
}

// CompareSuite maps the benchmark suite at the given K with both
// mappers and returns the comparison table.
func CompareSuite(k int, o CompareOptions) (Table, error) {
	if o.VerifyPatterns <= 0 {
		o.VerifyPatterns = 16
	}
	engines, err := o.engines()
	if err != nil {
		return Table{}, err
	}
	circuits := bench.Suite()
	if len(o.Circuits) > 0 {
		var sel []bench.Circuit
		for _, name := range o.Circuits {
			c, err := bench.ByName(name)
			if err != nil {
				return Table{}, err
			}
			sel = append(sel, c)
		}
		circuits = sel
	}
	tbl := Table{K: k, Engines: engines}
	for _, c := range circuits {
		row, err := compareOne(c, k, o, engines)
		if err != nil {
			return Table{}, fmt.Errorf("circuit %s: %w", c.Name, err)
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}

func compareOne(c bench.Circuit, k int, o CompareOptions, engines []Engine) (Row, error) {
	nw, err := bench.Optimized(c)
	if err != nil {
		return Row{}, err
	}

	t0 := time.Now()
	mres, err := MapBaseline(nw, k)
	if err != nil {
		return Row{}, err
	}
	misTime := time.Since(t0)
	misStats, err := mres.Circuit.Stats()
	if err != nil {
		return Row{}, err
	}
	if o.Verify {
		if err := verify.NetworkVsCircuit(nw, mres.Circuit, o.VerifyPatterns, 1); err != nil {
			return Row{}, fmt.Errorf("baseline circuit wrong: %w", err)
		}
	}

	row := Row{
		Circuit:   c.Name,
		MISLUTs:   mres.LUTs,
		MISDepth:  misStats.Depth,
		MISTime:   misTime,
		Synthetic: c.Synthetic,
	}
	for i, eng := range engines {
		copts := DefaultOptions(k)
		copts.Engine = eng
		copts.Budget.WorkUnits = o.Budget
		var col *Collector
		if i == 0 {
			// Observability attaches to the primary engine only, so the
			// -stats report and the -trace stream describe one engine's
			// runs rather than an interleaving.
			if o.Stats {
				col = &Collector{}
			}
			switch {
			case col != nil && o.Observer != nil:
				copts.Observer = MultiObserver{col, o.Observer}
			case col != nil:
				copts.Observer = col
			case o.Observer != nil:
				copts.Observer = o.Observer
			}
		}
		ctx := context.Background()
		if o.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, o.Timeout)
			defer cancel()
		}
		t1 := time.Now()
		res, err := MapCtx(ctx, nw, copts)
		if err != nil {
			return Row{}, fmt.Errorf("%v engine: %w", eng, err)
		}
		engTime := time.Since(t1)
		stats, err := res.Circuit.Stats()
		if err != nil {
			return Row{}, err
		}
		if o.Verify {
			if err := verify.NetworkVsCircuit(nw, res.Circuit, o.VerifyPatterns, 1); err != nil {
				return Row{}, fmt.Errorf("%v circuit wrong: %w", eng, err)
			}
		}
		diff := 0.0
		if mres.LUTs > 0 {
			diff = 100 * float64(mres.LUTs-res.LUTs) / float64(mres.LUTs)
		}
		switch eng {
		case EngineTree:
			row.ChortleLUTs, row.ChortleDepth = res.LUTs, stats.Depth
			row.DiffPct, row.ChortleTime = diff, engTime
		case EngineCut:
			row.CutLUTs, row.CutDepth = res.LUTs, stats.Depth
			row.CutDiffPct, row.CutTime = diff, engTime
		}
		if col != nil {
			row.Report = col.Report()
		}
	}
	return row, nil
}

// formatEngines returns the table's engine column order, defaulting to
// the tree engine for tables built before Engines existed.
func (t Table) formatEngines() []Engine {
	if len(t.Engines) == 0 {
		return []Engine{EngineTree}
	}
	return t.Engines
}

// FormatRows renders the table's header and benchmark rows in the
// paper's layout extended with one column group per compared engine —
// LUT count, depth and the "%" delta against MIS — followed by the
// wall times. Depth rides beside every LUT column so area wins cannot
// hide depth regressions.
func (t Table) FormatRows() string {
	engines := t.formatEngines()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table: Results, K=%d\n", t.K)
	fmt.Fprintf(&sb, "%-8s %8s %4s", "Circuit", "# MIS", "d")
	for _, e := range engines {
		fmt.Fprintf(&sb, " %8s %4s %7s", "# "+e.String(), "d", "%")
	}
	fmt.Fprintf(&sb, " %10s", "t MIS")
	for _, e := range engines {
		fmt.Fprintf(&sb, " %10s", "t "+e.String())
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		mark := ""
		if r.Synthetic {
			mark = "*"
		}
		fmt.Fprintf(&sb, "%-8s %8d %4d", r.Circuit+mark, r.MISLUTs, r.MISDepth)
		for _, e := range engines {
			luts, depth, diff, _, _ := r.Cols(e)
			fmt.Fprintf(&sb, " %8d %4d %6.1f%%", luts, depth, diff)
		}
		fmt.Fprintf(&sb, " %10s", fmtDur(r.MISTime))
		for _, e := range engines {
			_, _, _, et, _ := r.Cols(e)
			fmt.Fprintf(&sb, " %10s", fmtDur(et))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatSummary renders the table's average-difference and speedup line
// — the paper's per-K quote, with one average per compared engine.
// When printing several tables, emit every table's rows first and
// collect the summaries into one final block so they are not
// interleaved between tables.
func (t Table) FormatSummary() string {
	engines := t.formatEngines()
	var sb strings.Builder
	fmt.Fprintf(&sb, "K=%d: average", t.K)
	for i, e := range engines {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, " %5.1f%% %s", t.averageDiffPct(e), e)
	}
	lo, hi := t.SpeedupRange()
	fmt.Fprintf(&sb, "   speedup %.1fx..%.1fx (%s)\n", lo, hi, t.primary())
	return sb.String()
}

// Format renders the table in the paper's layout: rows followed by the
// summary and the synthetic-circuit footnote.
func (t Table) Format() string {
	var sb strings.Builder
	sb.WriteString(t.FormatRows())
	sb.WriteString(t.FormatSummary())
	fmt.Fprintf(&sb, "(* synthetic stand-in; see DESIGN.md)\n")
	return sb.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond / 10).String()
}

// SuiteNames lists the paper's benchmark circuits in table order.
func SuiteNames() []string {
	var out []string
	for _, c := range bench.Suite() {
		out = append(out, c.Name)
	}
	return out
}

// ExtendedSuiteNames lists the additional (non-paper) benchmark
// circuits: classic MCNC two-level functions rebuilt from behaviour.
func ExtendedSuiteNames() []string {
	var out []string
	for _, c := range bench.ExtendedSuite() {
		out = append(out, c.Name)
	}
	return out
}

// BenchmarkNetwork builds and optimizes one suite circuit by name —
// the exact network the comparison maps.
func BenchmarkNetwork(name string) (*Network, error) {
	c, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return bench.Optimized(c)
}

// RawBenchmarkNetwork builds one suite circuit without optimization.
func RawBenchmarkNetwork(name string) (*Network, error) {
	c, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return c.Build(), nil
}

// OptimizeForBench applies the bounded benchmark-grade script (the one
// CompareSuite uses) rather than the full default script.
func OptimizeForBench(nw *Network) (*Network, error) {
	nt, err := opt.FromNetwork(nw)
	if err != nil {
		return nil, err
	}
	nt.Optimize(bench.OptimizeOptions())
	return nt.Lower()
}

// sortedCopy is used by tests to compare row sets order-insensitively.
func sortedCopy(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].Circuit < out[j].Circuit })
	return out
}
