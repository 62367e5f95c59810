package explain

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"strings"
	"time"

	"chortle/internal/obs"
)

// The HTML run report: one self-contained file — no external scripts,
// stylesheets, images or fonts, so it can be archived as a CI artifact
// and opened anywhere. Charts are inline SVG rendered here; the only
// inputs are the aggregate obs.Report, the circuit's provenance
// summaries, and (optionally) baseline comparison rows and a DOT dump.

// CompareRow is one circuit's baseline-versus-Chortle comparison (the
// cmd/compare table, reproduced in the report header).
type CompareRow struct {
	Circuit      string
	BaselineLUTs int
	ChortleLUTs  int
	// DiffPct is the Chortle-versus-baseline LUT delta in percent
	// (negative means Chortle used fewer LUTs).
	DiffPct      float64
	BaselineTime time.Duration
	ChortleTime  time.Duration
	Synthetic    bool
}

// CircuitSection is the per-circuit body of a report: headline
// statistics, the origin breakdown from provenance, the aggregated
// observability report, and an optional embedded DOT source.
type CircuitSection struct {
	Name     string
	K        int
	LUTs     int
	Depth    int
	Trees    int
	Degraded int
	// Origins histograms the circuit's LUTs by provenance origin name
	// (lut.Circuit.OriginCounts). Nil when provenance was off.
	Origins map[string]int
	// Stats is the aggregated event stream of the mapping run (phase
	// walls, solve percentiles, histograms). Optional.
	Stats *obs.Report
	// DOT, when non-empty, is embedded verbatim in a collapsible block
	// so the report carries its own graph source.
	DOT string
}

// ReportData is everything WriteHTML renders.
type ReportData struct {
	Title string
	// Generated is a caller-supplied timestamp line (the library itself
	// never reads the clock, keeping output deterministic for tests).
	Generated string
	Compare   []CompareRow
	Sections  []CircuitSection
}

// barItem is one bar of an inline SVG chart.
type barItem struct {
	Label   string
	Value   float64
	Display string
}

// barChart renders a horizontal bar chart as inline SVG. Pure markup:
// deterministic, no scripts, no external references.
func barChart(items []barItem) template.HTML {
	if len(items) == 0 {
		return ""
	}
	max := 0.0
	for _, it := range items {
		if it.Value > max {
			max = it.Value
		}
	}
	if max == 0 {
		max = 1
	}
	const (
		rowH    = 22
		labelW  = 130
		barMaxW = 360
		valueW  = 110
	)
	width := labelW + barMaxW + valueW
	height := rowH * len(items)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">`, width, height, width, height)
	for i, it := range items {
		y := i * rowH
		w := int(it.Value / max * barMaxW)
		if w < 1 && it.Value > 0 {
			w = 1
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end" class="cl">%s</text>`,
			labelW-8, y+rowH-7, template.HTMLEscapeString(it.Label))
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" class="cb"/>`,
			labelW, y+4, w, rowH-8)
		fmt.Fprintf(&b, `<text x="%d" y="%d" class="cv">%s</text>`,
			labelW+w+6, y+rowH-7, template.HTMLEscapeString(it.Display))
	}
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// phaseChart charts the per-phase wall times.
func phaseChart(r *obs.Report) template.HTML {
	if r == nil || len(r.Phases) == 0 {
		return ""
	}
	items := make([]barItem, len(r.Phases))
	for i, p := range r.Phases {
		items[i] = barItem{
			Label:   p.Name,
			Value:   float64(p.Wall),
			Display: p.Wall.Round(time.Microsecond).String(),
		}
	}
	return barChart(items)
}

// originChart charts the provenance origin breakdown, in the fixed
// taxonomy order so reports are comparable run to run.
func originChart(origins map[string]int) template.HTML {
	if len(origins) == 0 {
		return ""
	}
	order := []string{"fresh", "memo", "binpack", "degraded", "unknown"}
	var items []barItem
	for _, name := range order {
		if n := origins[name]; n > 0 {
			items = append(items, barItem{Label: name, Value: float64(n), Display: fmt.Sprintf("%d LUTs", n)})
		}
	}
	return barChart(items)
}

// histChart charts an integer-keyed histogram in key order.
func histChart(h map[int]int, unit string) template.HTML {
	if len(h) == 0 {
		return ""
	}
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	items := make([]barItem, len(keys))
	for i, k := range keys {
		items[i] = barItem{
			Label:   fmt.Sprintf("%d %s", k, unit),
			Value:   float64(h[k]),
			Display: fmt.Sprintf("%d", h[k]),
		}
	}
	return barChart(items)
}

var reportFuncs = template.FuncMap{
	"phaseChart":  phaseChart,
	"originChart": originChart,
	"histChart":   histChart,
	"dur": func(d time.Duration) string {
		return d.Round(time.Microsecond).String()
	},
	"pct": func(f float64) string {
		return fmt.Sprintf("%+.1f%%", f)
	},
}

var reportTmpl = template.Must(template.New("report").Funcs(reportFuncs).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 64rem; color: #1c2733; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.2rem; margin-top: 2rem; border-bottom: 1px solid #d6dde4; }
h3 { font-size: 1rem; margin-bottom: 0.3rem; }
table { border-collapse: collapse; margin: 0.8rem 0; }
th, td { border: 1px solid #d6dde4; padding: 0.3rem 0.7rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
thead { background: #eef2f5; }
.gen { color: #5d6b79; font-size: 0.85rem; }
.cl, .cv { font: 12px monospace; fill: #1c2733; }
.cb { fill: #7fa8d0; }
.statline { color: #39434e; }
details { margin: 0.6rem 0; }
pre { background: #f4f6f8; padding: 0.7rem; overflow-x: auto; font-size: 0.8rem; }
.badge { background: #eef2f5; border-radius: 0.6rem; padding: 0.1rem 0.5rem; font-size: 0.8rem; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
{{if .Generated}}<p class="gen">{{.Generated}}</p>{{end}}
{{if .Compare}}
<h2>Baseline comparison</h2>
<table>
<thead><tr><th>circuit</th><th>baseline LUTs</th><th>chortle LUTs</th><th>diff</th><th>baseline time</th><th>chortle time</th></tr></thead>
<tbody>
{{range .Compare}}<tr><td>{{.Circuit}}{{if .Synthetic}} <span class="badge">synthetic</span>{{end}}</td><td>{{.BaselineLUTs}}</td><td>{{.ChortleLUTs}}</td><td>{{pct .DiffPct}}</td><td>{{dur .BaselineTime}}</td><td>{{dur .ChortleTime}}</td></tr>
{{end}}</tbody>
</table>
{{end}}
{{range .Sections}}
<h2>{{.Name}} (K={{.K}})</h2>
<p class="statline">{{.LUTs}} LUTs, depth {{.Depth}}, {{.Trees}} trees{{if .Degraded}}, {{.Degraded}} degraded{{end}}</p>
{{with .Stats}}
<h3>Phase wall times</h3>
{{phaseChart .}}
{{if .TimedSolves}}<p class="statline">solve times over {{.TimedSolves}} timed solves: p50 {{dur .SolveP50}}, p95 {{dur .SolveP95}}, p99 {{dur .SolveP99}}</p>{{end}}
<p class="statline">{{.Solves}} solves, {{.WorkUnits}} work units, {{.MemoHits}} memo hits</p>
{{if .LUTInputHist}}<h3>LUT input usage</h3>
{{histChart .LUTInputHist "inputs"}}{{end}}
{{if .LUTDepthHist}}<h3>LUT levels</h3>
{{histChart .LUTDepthHist "levels"}}{{end}}
{{end}}
{{if .Origins}}
<h3>LUT origins</h3>
{{originChart .Origins}}
{{end}}
{{if .DOT}}
<details><summary>DOT source (circuit graph)</summary>
<pre>{{.DOT}}</pre>
</details>
{{end}}
{{end}}
</body>
</html>
`))

// WriteHTML renders the report as one self-contained HTML document:
// inline styles, inline SVG charts, no references to anything outside
// the file (pinned by tests that grep the output).
func WriteHTML(w io.Writer, d *ReportData) error {
	return reportTmpl.Execute(w, d)
}
