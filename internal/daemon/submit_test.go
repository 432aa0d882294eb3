package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// submitRaw posts body to POST /fleet/jobs on h and returns the status.
func submitRaw(h http.Handler, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/jobs", strings.NewReader(body)))
	return rec.Code
}

// listJobNames returns the names GET /fleet/jobs lists, in order.
func listJobNames(t testing.TB, h http.Handler) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fleet/jobs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /fleet/jobs = %d", rec.Code)
	}
	var jobs []FleetJobState
	if err := json.Unmarshal(rec.Body.Bytes(), &jobs); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Name
	}
	return names
}

// TestFleetSubmitStrictBody pins the POST /fleet/jobs body contract: one
// JSON object, no unknown fields, at most maxSubmitBodyBytes. A rejected
// body leaves the job list untouched.
func TestFleetSubmitStrictBody(t *testing.T) {
	valid := `{"name":"gamma","workload":"wordcount","rates":[5000]}`
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"valid", valid, http.StatusAccepted},
		{"valid-trailing-whitespace", valid + " \n\t", http.StatusAccepted},
		{"misspelled-field", `{"name":"gamma","workload":"wordcount","rate":[5000]}`, http.StatusBadRequest},
		{"trailing-garbage", valid + "garbage", http.StatusBadRequest},
		{"trailing-object", valid + `{"name":"delta"}`, http.StatusBadRequest},
		{"oversized", `{"name":"gamma","workload":"wordcount"}` + strings.Repeat(" ", 8<<20), http.StatusRequestEntityTooLarge},
		{"oversized-field", `{"name":"` + strings.Repeat("x", maxSubmitBodyBytes) + `","workload":"wordcount"}`, http.StatusRequestEntityTooLarge},
		{"not-json", "name=gamma", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewFleet(testFleetConfig(t, 4))
			if err != nil {
				t.Fatal(err)
			}
			h := d.Handler()
			before := listJobNames(t, h)
			if got := submitRaw(h, tc.body); got != tc.want {
				t.Fatalf("submit = %d, want %d", got, tc.want)
			}
			after := listJobNames(t, h)
			if tc.want == http.StatusAccepted {
				before = append(before, "gamma")
			}
			if !reflect.DeepEqual(after, before) {
				t.Errorf("jobs after submit = %v, want %v", after, before)
			}
		})
	}
}

// FuzzSubmitJob drives POST /fleet/jobs with arbitrary bodies. The
// handler must never panic or answer 5xx; a 202 must list exactly the
// submitted job at the end of GET /fleet/jobs, and any 4xx must leave the
// list unchanged.
func FuzzSubmitJob(f *testing.F) {
	for _, seed := range []string{
		`{"name":"gamma","workload":"wordcount","profile":"high"}`,
		`{"name":"gamma","workload":"group","rates":[100],"priority":2,"depart_slot":3}`,
		`{"name":"gamma","workload":"yahoo","plan_on_admit":true,"target_rates":[1000]}`,
		`{"name":"alpha","workload":"wordcount"}`,
		`{"name":"gamma","workload":"wordcount","rate":[5000]}`,
		`{"name":"gamma","workload":"wordcount"} trailing`,
		`{"name":"gamma","workload":"wordcount","rates":[-1]}`,
		`{"name":"","workload":"wordcount"}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add(seed)
	}
	cfg := testFleetConfig(f, 4)
	f.Fuzz(func(t *testing.T, body string) {
		c := cfg
		c.Fleet.Jobs = append(c.Fleet.Jobs[:0:0], cfg.Fleet.Jobs...)
		d, err := NewFleet(c)
		if err != nil {
			t.Fatal(err)
		}
		h := d.Handler()
		before := listJobNames(t, h)
		status := submitRaw(h, body)
		after := listJobNames(t, h)
		switch {
		case status == http.StatusAccepted:
			var req SubmitRequest
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatalf("202 for a body encoding/json rejects: %v", err)
			}
			if want := append(before, req.Name); !reflect.DeepEqual(after, want) {
				t.Fatalf("after 202 jobs = %q, want %q", after, want)
			}
		case status >= 400 && status < 500:
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("after %d jobs = %q, want unchanged %q", status, after, before)
			}
		default:
			t.Fatalf("submit answered %d", status)
		}
	})
}
