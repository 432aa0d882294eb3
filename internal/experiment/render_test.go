package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func TestMinutesOrNever(t *testing.T) {
	if got := minutesOrNever(-1); got != "never" {
		t.Errorf("minutesOrNever(-1) = %q", got)
	}
	if got := minutesOrNever(70); got != "70" {
		t.Errorf("minutesOrNever(70) = %q", got)
	}
}

func TestSpeedupOrDash(t *testing.T) {
	if got := speedupOrDash(0); got != "—" {
		t.Errorf("speedupOrDash(0) = %q", got)
	}
	if got := speedupOrDash(2.5); got != "2.50X" {
		t.Errorf("speedupOrDash(2.5) = %q", got)
	}
}

func TestRenderSparklineEdgeCases(t *testing.T) {
	var buf bytes.Buffer
	renderSparkline(&buf, nil, 1)
	if !strings.Contains(buf.String(), "(empty)") {
		t.Errorf("empty sparkline = %q", buf.String())
	}
	buf.Reset()
	renderSparkline(&buf, []float64{0, 0, 0}, 1)
	if !strings.Contains(buf.String(), "peak 0.0") {
		t.Errorf("all-zero sparkline = %q", buf.String())
	}
	buf.Reset()
	// Longer than the 60-char budget: buckets must compress.
	series := make([]float64, 300)
	for i := range series {
		series[i] = float64(i)
	}
	renderSparkline(&buf, series, 1)
	line := buf.String()
	if len([]rune(strings.Split(line, "|")[1])) > 61 {
		t.Errorf("sparkline too wide: %q", line)
	}
	if !strings.Contains(line, "peak 299") {
		t.Errorf("peak missing: %q", line)
	}
}

func TestRenderFig5RendersUnconverged(t *testing.T) {
	rows := []Fig5Row{{
		Workload:         "toy",
		Operators:        2,
		Minutes:          map[string]float64{"dhalion": -1, "dragster-saddle": 20, "dragster-ogd": 30},
		SpeedupVsDhalion: map[string]float64{},
	}}
	var buf bytes.Buffer
	RenderFig5(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "never") || !strings.Contains(out, "—") {
		t.Errorf("unconverged row rendering:\n%s", out)
	}
}
