package main

import (
	"flag"
	"strings"
	"testing"
)

func TestParseJobs(t *testing.T) {
	jobs, err := parseJobs("wordcount=wordcount:high")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Name != "wordcount" || jobs[0].Workload.Name != "wordcount" {
		t.Fatalf("default list parsed to %+v", jobs)
	}
	jobs, err = parseJobs("hot=wordcount:high, light=group:low")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[1].Name != "light" || jobs[1].Workload.Name != "group" {
		t.Fatalf("two-job list parsed to %+v", jobs)
	}
	jobs, err = parseJobs("up=wordcount:step")
	if err != nil {
		t.Fatal(err)
	}
	spec := jobs[0].Workload
	if before, after := jobs[0].Rates(19, 0), jobs[0].Rates(20, 0); before[0] != spec.LowRates[0] || after[0] != spec.HighRates[0] {
		t.Fatalf("step job offers %v at slot 19 and %v at slot 20, want low then high", before, after)
	}
	for list, want := range map[string]string{
		"wordcount":             "want name=workload:profile",
		"a=nosuch:high":         "nosuch",
		"a=wordcount:sometimes": `unknown profile "sometimes"`,
	} {
		if _, err := parseJobs(list); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseJobs(%q) = %v, want an error containing %q", list, err, want)
		}
	}
}

// TestDefaultFlags builds the daemon dragsterd serves with no flags (a
// one-tenant wordcount fleet) and steps it.
func TestDefaultFlags(t *testing.T) {
	fs := flag.NewFlagSet("dragsterd", flag.ContinueOnError)
	addr, build := register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *addr != ":8080" {
		t.Errorf("default addr %q", *addr)
	}
	d, banner, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if banner != "1 jobs, budget 20, arbiter dual-price" {
		t.Errorf("banner %q", banner)
	}
	if err := d.StepN(3); err != nil {
		t.Fatal(err)
	}
	res := d.Result()
	if len(res.Jobs) != 1 || res.Jobs[0].Name != "wordcount" || len(res.Jobs[0].Rounds) != 3 {
		t.Fatalf("after 3 rounds: %+v", res.Jobs)
	}
}

func TestUnknownArbiter(t *testing.T) {
	fs := flag.NewFlagSet("dragsterd", flag.ContinueOnError)
	_, build := register(fs)
	if err := fs.Parse([]string{"-arbiter", "fifo"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := build(); err == nil || !strings.Contains(err.Error(), `unknown arbiter "fifo"`) {
		t.Fatalf("build with -arbiter fifo: %v", err)
	}
}
