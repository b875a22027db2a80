package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkMetricNames reads the metric names BENCHMARK.json declares.
func benchmarkMetricNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(ms map[string]metric) []string {
	var out []string
	for name := range ms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func tinyConfig(t *testing.T, name string, trace bool) *runConfig {
	return &runConfig{
		w: workloads[name], seed: 11, seconds: 1, duration: 300 * time.Millisecond,
		trace: trace, scale: 0.001, workdir: t.TempDir(),
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks that every answer matched the oracle and that the metrics
// reported are exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetricNames(t)
	for _, name := range []string{"adhoc", "serve", "churn"} {
		for _, trace := range []bool{false, true} {
			res, err := execute(tinyConfig(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			l := res.line
			if l.Attempted < 1 || l.Failed != 0 || res.meta["wrong"] != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d meta %v", name, trace, l.Attempted, l.Failed, res.meta)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := metricNames(l.Metrics); !equalStrings(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, trace, got, want)
			}
			if !trace {
				for _, m := range endToEnd {
					if l.Metrics[m].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, l.Metrics[m].Value)
					}
				}
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestVerifyCountsWrongAnswers checks that the oracle comparison catches
// a corrupted answer and an answer at an epoch nobody published.
func TestVerifyCountsWrongAnswers(t *testing.T) {
	for _, name := range []string{"adhoc", "churn"} {
		cfg := tinyConfig(t, name, false)
		cfg.spillDir = t.TempDir()
		b, err := newBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, _, err := b.setup(cfg.runDir(), func(d string) (engine, error) { return openFacade(d, cfg.w, cfg) })
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.run(eng)
		if cerr := eng.close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if wrong, err := b.verify(p); err != nil || wrong != 0 {
			t.Fatalf("%s: clean run has %d wrong answers (%v)", name, wrong, err)
		}
		p.samples[len(p.samples)-1].dig ^= 1
		if wrong, err := b.verify(p); err != nil || wrong != 1 {
			t.Fatalf("%s: corrupted answer counted %d wrong (%v), want 1", name, wrong, err)
		}
		if name == "churn" {
			p.samples[0].epoch = 1 << 60
			if _, err := b.verify(p); err == nil {
				t.Fatalf("answer at an unpublished epoch passed verification")
			}
		}
	}
}
