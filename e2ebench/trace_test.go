package main

import (
	"reflect"
	"testing"
)

func TestCoveredUnionsAndClips(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{10, 20}, {30, 40}}, 20},
		{0, 100, [][2]int64{{10, 30}, {20, 40}}, 30},           // overlap counted once
		{0, 100, [][2]int64{{10, 40}, {20, 30}}, 30},           // nested
		{0, 100, [][2]int64{{10, 20}, {20, 30}}, 20},           // touching
		{0, 100, [][2]int64{{-50, 10}, {90, 150}}, 20},         // clipped to the parent
		{0, 100, [][2]int64{{30, 40}, {10, 20}, {15, 35}}, 30}, // unsorted input
		{0, 100, [][2]int64{{120, 130}}, 0},                    // outside entirely
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 50},
		{Name: "b", ID: 2, Parent: 0, Start: 40, End: 70},  // overlaps a
		{Name: "c", ID: 3, Parent: 1, Start: 20, End: 30},  // grandchild
		{Name: "d", ID: 4, Parent: 2, Start: 60, End: 120}, // outlives its parent
		{Name: "e", ID: 5, Parent: 0, Start: 90, End: -1},  // never closed
	}
	want := []int64{100 - 60, 40 - 10, 30 - 10, 10, 60, 0}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	p := profile(spans, "request")
	if p.roots != 1 || p.rootWall != 100 || p.rootOther != 40 {
		t.Fatalf("profile roots=%d wall=%d other=%d, want 1, 100, 40", p.roots, p.rootWall, p.rootOther)
	}
	if p.self["a"] != 30 || p.self["b"] != 20 || p.count["e"] != 1 {
		t.Fatalf("profile self=%v count=%v", p.self, p.count)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin(1, -1, "x")
	tr.end(id)
	if tr.record(1, id, "y", 0, 1) != -1 || tr.now() != 0 {
		t.Fatal("nil tracer recorded a span")
	}
}
