package telemetry

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadJSONL drives the trace-file surface the dragster trace
// subcommands read: on arbitrary input ReadJSONL ends in an error or a
// TraceFile, never a panic, and every TraceFile it returns survives the
// time-in-phase aggregation and the Chrome export.
func FuzzReadJSONL(f *testing.F) {
	var sample bytes.Buffer
	if err := buildSampleTracer().WriteJSONL(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.String())
	for _, seed := range []string{
		`{"type":"span","span":{"id":1,"cat":"x","name":"y","start":5,"end":2}}`,
		`{"type":"metric","metric":{"kind":"histogram","name":"h","buckets":[1],"bounds":[]}}`,
		`{"type":"span"}`,
		`{"type":"trace"}`,
		"\n\n",
		`{"type":"span","span":{"attrs":[{"key":"slot","value":"-1"}],"slot":-9223372036854775808}}`,
		strings.Repeat("{", 64),
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tf, err := ReadJSONL(strings.NewReader(src))
		if err != nil {
			if tf != nil {
				t.Fatalf("ReadJSONL returned both a trace and the error %v", err)
			}
			return
		}
		TimeInPhase(tf.Spans)
		if err := WriteChromeTrace(io.Discard, tf.Spans); err != nil {
			t.Fatalf("WriteChromeTrace on a parsed trace: %v", err)
		}
	})
}
