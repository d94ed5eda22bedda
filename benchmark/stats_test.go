package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileKnownInputs(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.25, 3.25}, {0.75, 7.75}, {0.99, 9.91}, {1, 10},
	}
	for _, c := range cases {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of no samples should be NaN")
	}
	if got := (samples{5, 1, 3}).median(); got != 3 {
		t.Errorf("median of unsorted {5,1,3} = %v, want 3", got)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	var s samples
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		s.add(float64(i))
	}
	tl := tailOf(s)
	if tl.Value != 990 || tl.N != 1000 || !near(tl.Percentile, 99) {
		t.Fatalf("tail of 1..1000 = %+v, want value 990 at p99 over 1000", tl)
	}
	beyond := 0
	for _, v := range s {
		if v > tl.Value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}

	s = samples{}
	for i := 1; i <= 55; i++ {
		s.add(float64(i))
	}
	if tl := tailOf(s); tl.Value != 45 || !near(tl.Percentile, 100*45.0/55) {
		t.Fatalf("tail of 1..55 = %+v, want 45 at p%.4f", tl, 100*45.0/55)
	}

	// Too few samples for any percentile to have ten beyond it: the
	// maximum, flagged as p100 with its count.
	if tl := tailOf(samples{3, 9, 4}); tl.Value != 9 || tl.Percentile != 100 || tl.N != 3 {
		t.Fatalf("tail of 3 samples = %+v, want max 9 at p100 over 3", tl)
	}

	// Eleven to nineteen samples: the percentile with ten beyond it lies
	// below the median, so the maximum stands in for the tail as well.
	s = samples{}
	for i := 1; i <= 15; i++ {
		s.add(float64(i))
	}
	if tl := tailOf(s); tl.Value != 15 || tl.Percentile != 100 || tl.N != 15 {
		t.Fatalf("tail of 1..15 = %+v, want max 15 at p100 over 15", tl)
	}
	s = samples{}
	for i := 1; i <= 20; i++ {
		s.add(float64(i))
	}
	if tl := tailOf(s); tl.Value != 10 || !near(tl.Percentile, 50) {
		t.Fatalf("tail of 1..20 = %+v, want 10 at p50", tl)
	}
}

func TestScheduleAndLateness(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 4000)
	if s.perTick != 4 || s.tick != time.Millisecond || s.rate() != 4000 {
		t.Fatalf("4000/s schedule = %+v", s)
	}
	for i, want := range []time.Duration{0, 0, 0, 0, time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond, 2 * time.Millisecond} {
		if got := s.due(i).Sub(start); got != want {
			t.Errorf("job %d due at +%v, want +%v", i, got, want)
		}
	}
	slow := newSchedule(start, 250)
	if slow.perTick != 1 || slow.tick != 4*time.Millisecond || slow.due(3).Sub(start) != 12*time.Millisecond {
		t.Fatalf("250/s schedule = %+v", slow)
	}

	// A job sent 3 ms late and answered 1 ms later is charged 4 ms: the
	// stall that delayed its send counts against it.
	due := start
	late, lat := lateness(due, due.Add(3*time.Millisecond), due.Add(4*time.Millisecond))
	if late != 3*time.Millisecond || lat != 4*time.Millisecond {
		t.Fatalf("late send: lateness %v latency %v, want 3ms and 4ms", late, lat)
	}
	// Sending early is not negative lateness; latency still starts at due.
	late, lat = lateness(due, due.Add(-time.Millisecond), due.Add(2*time.Millisecond))
	if late != 0 || lat != 2*time.Millisecond {
		t.Fatalf("early send: lateness %v latency %v, want 0 and 2ms", late, lat)
	}
}

func TestPairedOverheadAlternatesOrder(t *testing.T) {
	var order []string
	base := func() (time.Duration, error) { order = append(order, "b"); return 100, nil }
	variant := func() (time.Duration, error) { order = append(order, "v"); return 110, nil }
	sp, err := pairedOverheadPct(4, base, variant)
	if err != nil {
		t.Fatal(err)
	}
	want := "bvvbbvvb"
	got := ""
	for _, o := range order {
		got += o
	}
	if got != want {
		t.Fatalf("run order %q, want %q", got, want)
	}
	if !near(sp.Median, 10) || sp.IQR != 0 || sp.Pairs != 4 {
		t.Fatalf("overhead %+v, want median 10%% with no spread over 4 pairs", sp)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "service.call", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "service.exec", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "service.exec", Start: 30, End: 50}, // overlaps 2
		{ID: 4, Parent: 1, Name: "x.y", Start: 90, End: 120},         // runs past its parent
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 {
		t.Fatalf("call self time %d, want 50", self[1])
	}
	if self[2] != 30 || self[4] != 30 {
		t.Fatalf("leaf self times %d and %d, want their durations", self[2], self[4])
	}
	if got := layerSelf(spans, self); !near(got["service"], (50+30+20)/1e6) || !near(got["x"], 30/1e6) {
		t.Fatalf("layer self times %v", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, n := range []string{"setup_s", "core.spawn_to_start_us_p99", "expt.fig3_ms", "a-b.c_d", "9x"} {
		if !validName(n) {
			t.Errorf("%q should be a valid metric name", n)
		}
	}
	for _, n := range []string{"", "has space", "pct%", "_lead", ".lead", "slash/x", "x:y"} {
		if validName(n) {
			t.Errorf("%q should be rejected", n)
		}
	}
}

// TestBenchmarkFileNames checks every metric and workload name the
// benchmark declares, and that each workload it declares exists here.
func TestBenchmarkFileNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, group := range [][]struct{ Name string }{doc.Workloads, doc.EndToEnd, doc.PerLayer} {
		for _, m := range group {
			if !validName(m.Name) {
				t.Errorf("invalid name %q", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("name %q used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range doc.Workloads {
		found := false
		for _, have := range workloads {
			found = found || have.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
