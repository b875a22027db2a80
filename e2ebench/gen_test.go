package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"mdxopt/internal/datagen"
	"mdxopt/internal/mdx"
	"mdxopt/internal/star"
	"mdxopt/internal/workload"
)

func paperSchema(t *testing.T, scale float64) (*star.Schema, shape) {
	t.Helper()
	spec := datagen.PaperSpec(scale)
	schema, err := datagen.BuildSchema(spec)
	if err != nil {
		t.Fatal(err)
	}
	return schema, newShape(spec.Cards)
}

func adhocTexts(seed int64, sh shape, n int) []string {
	g := newAdhocGen(seed, sh)
	out := make([]string, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestAdhocGenDeterministicPerSeed(t *testing.T) {
	_, sh := paperSchema(t, 0.1)
	a, b := adhocTexts(7, sh, 300), adhocTexts(7, sh, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different expressions")
	}
	if reflect.DeepEqual(a, adhocTexts(8, sh, 300)) {
		t.Fatal("different seeds produced the same expressions")
	}
	seen := make(map[string]bool)
	for _, s := range a {
		if seen[s] {
			t.Fatalf("expression repeated: %s", s)
		}
		seen[s] = true
	}
}

func TestAdhocExpressionsDenoteOneToSixteenQueries(t *testing.T) {
	schema, sh := paperSchema(t, 0.1)
	hist := make(map[int]int)
	for _, s := range adhocTexts(1, sh, 2000) {
		qs, err := mdx.ParseAndTranslate(schema, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(qs) < 1 || len(qs) > 16 {
			t.Fatalf("%s denotes %d queries", s, len(qs))
		}
		hist[len(qs)]++
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		if hist[n] == 0 {
			t.Errorf("no expression denoted %d queries: %v", n, hist)
		}
	}
}

func TestPaperVariants(t *testing.T) {
	schema, sh := paperSchema(t, 0.1)
	a := paperVariants(3, sh, 300)
	if !reflect.DeepEqual(a, paperVariants(3, sh, 300)) {
		t.Fatal("same seed produced different variants")
	}
	if len(a) != 300 {
		t.Fatalf("got %d texts, want 300", len(a))
	}
	paper := make(map[string]bool)
	for _, s := range workload.MDX() {
		paper[s] = true
	}
	seen := make(map[string]bool)
	for i, s := range a {
		if i < 9 != paper[s] {
			t.Errorf("text %d: paper query = %v, want %v", i, paper[s], i < 9)
		}
		if seen[s] {
			t.Errorf("text %d repeated: %s", i, s)
		}
		seen[s] = true
		qs, err := mdx.ParseAndTranslate(schema, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(qs) != 1 {
			t.Errorf("%s denotes %d queries, want 1", s, len(qs))
		}
	}
}

func TestPoissonArrivalsDeterministicAtRate(t *testing.T) {
	a := poissonArrivals(5, 500, 10*time.Second, 300)
	if !reflect.DeepEqual(a, poissonArrivals(5, 500, 10*time.Second, 300)) {
		t.Fatal("same seed produced different arrivals")
	}
	if n := float64(len(a)); math.Abs(n-5000) > 300 {
		t.Fatalf("%v arrivals in 10 s at 500/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at || a[i].text < 0 || a[i].text >= 300 {
			t.Fatalf("bad arrival %d: %+v", i, a[i])
		}
	}
}

func TestChurnBatchesDeterministic(t *testing.T) {
	_, sh := paperSchema(t, 0.1)
	a := churnBatches(9, sh, 3, 50)
	if !reflect.DeepEqual(a, churnBatches(9, sh, 3, 50)) {
		t.Fatal("same seed produced different batches")
	}
	for _, b := range a {
		for r, k := range b.keys {
			for d, c := range k {
				if c < 0 || int(c) >= sh.baseCards[d] {
					t.Fatalf("key %v out of range", k)
				}
			}
			if m := b.measures[r]; m != math.Trunc(m) {
				t.Fatalf("measure %v is not whole", m)
			}
		}
	}
}
