package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file is the registry's export surface: the Prometheus text
// exposition format (GET /metrics), a JSON dump (the CLI's -metrics-out
// and the expvar bridge), and the expvar.Var adapter. All rendering
// happens at scrape time; record paths never format anything.

// promLabels renders a series' label set for the exposition format,
// optionally with an extra trailing label (histograms' le).
func promLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), in registration order with series in
// registration order — a stable scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	r.visit(func(fam *family) {
		if fam.help != "" {
			pf("# HELP %s %s\n", fam.name, fam.help)
		}
		pf("# TYPE %s %s\n", fam.name, fam.kind)
		for _, s := range fam.series {
			switch fam.kind {
			case kindCounter:
				pf("%s%s %d\n", fam.name, promLabels(s.labels, "", ""), s.c.Value())
			case kindGauge:
				pf("%s%s %d\n", fam.name, promLabels(s.labels, "", ""), s.g.Value())
			case kindHistogram:
				bounds, cum := s.h.Snapshot()
				for i, b := range bounds {
					pf("%s_bucket%s %d\n", fam.name, promLabels(s.labels, "le", formatBound(b)), cum[i])
				}
				pf("%s_bucket%s %d\n", fam.name, promLabels(s.labels, "le", "+Inf"), cum[len(cum)-1])
				pf("%s_sum%s %g\n", fam.name, promLabels(s.labels, "", ""), s.h.Sum().Seconds())
				pf("%s_count%s %d\n", fam.name, promLabels(s.labels, "", ""), s.h.Count())
			}
		}
	})
	return err
}

// SeriesJSON is one labeled series in the JSON dump.
type SeriesJSON struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge value.
	Value *int64 `json:"value,omitempty"`
	// Histogram payload: cumulative bucket counts per bound (plus +Inf),
	// total observation count and summed seconds.
	Bounds     []float64 `json:"bounds,omitempty"`
	Cumulative []uint64  `json:"cumulative,omitempty"`
	Count      *uint64   `json:"count,omitempty"`
	SumSeconds *float64  `json:"sum_seconds,omitempty"`
}

// FamilyJSON is one metric family in the JSON dump.
type FamilyJSON struct {
	Name   string       `json:"name"`
	Type   string       `json:"type"`
	Help   string       `json:"help,omitempty"`
	Series []SeriesJSON `json:"series"`
}

// Snapshot returns the registry as a JSON-marshalable document, families
// sorted by name (the dump is for humans and diffs, not for scrapes).
func (r *Registry) Snapshot() []FamilyJSON {
	var out []FamilyJSON
	r.visit(func(fam *family) {
		fj := FamilyJSON{Name: fam.name, Type: fam.kind.String(), Help: fam.help}
		for _, s := range fam.series {
			sj := SeriesJSON{}
			if len(s.labels) > 0 {
				sj.Labels = map[string]string{}
				for _, l := range s.labels {
					sj.Labels[l.Key] = l.Value
				}
			}
			switch fam.kind {
			case kindCounter:
				v := int64(s.c.Value())
				sj.Value = &v
			case kindGauge:
				v := s.g.Value()
				sj.Value = &v
			case kindHistogram:
				sj.Bounds, sj.Cumulative = s.h.Snapshot()
				cnt := s.h.Count()
				sum := s.h.Sum().Seconds()
				sj.Count = &cnt
				sj.SumSeconds = &sum
			}
			fj.Series = append(fj.Series, sj)
		}
		out = append(out, fj)
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the indented JSON dump (the -metrics-out format).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
