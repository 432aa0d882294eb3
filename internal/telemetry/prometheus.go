package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition for a Registry (version 0.0.4, the format
// every Prometheus-compatible scraper speaks). The registry itself keeps
// flat metric names; labelled series are encoded into the name with
// Label, and the renderer splits them back out so `name{k="v"}` series
// share one TYPE declaration. Rendering reads one deterministic Snapshot,
// so two identical runs expose byte-identical /metrics bodies.

// Label encodes one labelled series name for a Registry metric:
// Label("fleet_budget_share", "job", "alpha") → fleet_budget_share{job="alpha"}.
// Label values are escaped per the exposition format (backslash, quote,
// newline).
func Label(name, key, value string) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	b.WriteString(key)
	b.WriteString(`="`)
	b.WriteString(labelEscaper.Replace(value))
	b.WriteString(`"}`)
	return b.String()
}

// labelEscaper escapes a label value per the exposition format. A
// strings.Replacer is safe for concurrent use, so one serves every call.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// baseName strips a Label-encoded series down to its metric family name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: counters (with a _total-less name, as stored), gauges, and
// histograms with cumulative le buckets, _sum, and _count. A nil registry
// renders nothing.
func WritePrometheus(w io.Writer, reg *Registry) error {
	snap := reg.Snapshot()
	// Group records by (kind, family) so labelled series share one TYPE
	// line; Snapshot order is deterministic, and sorting families keeps
	// the output stable too.
	type familyKey struct{ kind, family string }
	families := make(map[familyKey][]MetricRecord)
	var order []familyKey
	for _, rec := range snap {
		k := familyKey{rec.Kind, baseName(rec.Name)}
		if _, ok := families[k]; !ok {
			order = append(order, k)
		}
		families[k] = append(families[k], rec)
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].kind != order[b].kind {
			return order[a].kind < order[b].kind
		}
		return order[a].family < order[b].family
	})
	for _, k := range order {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", k.family, k.kind); err != nil {
			return err
		}
		for _, rec := range families[k] {
			if err := writeRecord(w, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeRecord(w io.Writer, rec MetricRecord) error {
	switch rec.Kind {
	case "counter", "gauge":
		_, err := fmt.Fprintf(w, "%s %s\n", rec.Name, formatValue(rec.Value))
		return err
	case "histogram":
		// Cumulative buckets per the exposition format: each le bucket
		// counts every observation ≤ its bound, ending at le="+Inf".
		var cum int64
		for i, b := range rec.Bounds {
			cum += rec.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", rec.Name, formatValue(b), cum); err != nil {
				return err
			}
		}
		cum += rec.Buckets[len(rec.Bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", rec.Name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", rec.Name, formatValue(rec.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", rec.Name, rec.Count)
		return err
	default:
		return fmt.Errorf("telemetry: unknown metric kind %q", rec.Kind)
	}
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
