package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mdxopt/internal/workload"
)

// shape is the member layout the generators draw from. Dimensions A, B
// and C of the paper schema share one layout: top members A1.. at the
// top level and mid members AA1.. one level below; D has mid members
// DD1.. and top members D1.. .
type shape struct {
	top, mid   int    // members at the top and mid levels of A, B and C
	dMid, dTop int    // members at the mid and top levels of D
	baseCards  [4]int // base-level cardinalities, for generated fact rows
}

func newShape(cards [][]int) shape {
	s := shape{mid: cards[0][1], top: cards[0][2], dMid: cards[3][1], dTop: cards[3][2]}
	for i := range s.baseCards {
		s.baseCards[i] = cards[i][0]
	}
	return s
}

// adhocGen yields distinct analyst expressions. Each axis (A on COLUMNS,
// B on ROWS, C on PAGES) carries one or two level groups — top members,
// a top member's CHILDREN, or mid members — and D is either a FILTER, a
// NEST arm with one or two level groups, or aggregated out. An expression
// therefore denotes 1 to 16 component group-bys. Not safe for concurrent
// use.
type adhocGen struct {
	rng  *rand.Rand
	sh   shape
	seen map[string]bool
}

func newAdhocGen(seed int64, sh shape) *adhocGen {
	return &adhocGen{rng: rand.New(rand.NewSource(seed)), sh: sh, seen: make(map[string]bool)}
}

// next returns an expression not returned before.
func (g *adhocGen) next() string {
	for {
		s := g.expr()
		if !g.seen[s] {
			g.seen[s] = true
			return s
		}
	}
}

func (g *adhocGen) expr() string {
	var axes [3]string
	for i, dim := range []string{"A", "B", "C"} {
		axes[i] = g.axisSet(dim)
	}
	filter := ""
	switch g.rng.Intn(3) {
	case 0: // D nested on one axis
		ax := g.rng.Intn(3)
		axes[ax] = fmt.Sprintf("NEST(%s, %s)", axes[ax], g.dSet())
	case 1:
		filter = fmt.Sprintf(" FILTER (D'.DD%d)", 1+g.rng.Intn(g.sh.dMid))
	}
	return fmt.Sprintf("%s on COLUMNS %s on ROWS %s on PAGES CONTEXT ABCD%s", axes[0], axes[1], axes[2], filter)
}

// axisSet draws one or two level groups for dimension dim; two groups
// are always at different levels, so the axis contributes 1 or 2 levels.
func (g *adhocGen) axisSet(dim string) string {
	topGroup := func() []string {
		n := 1 + g.rng.Intn(g.sh.top)
		var out []string
		for _, k := range g.rng.Perm(g.sh.top)[:n] {
			out = append(out, fmt.Sprintf("%s''.%s%d", dim, dim, k+1))
		}
		return out
	}
	midGroup := func() []string {
		if g.rng.Intn(2) == 0 {
			return []string{fmt.Sprintf("%s''.%s%d.CHILDREN", dim, dim, 1+g.rng.Intn(g.sh.top))}
		}
		n := 1 + g.rng.Intn(3)
		var out []string
		for _, k := range g.rng.Perm(g.sh.mid)[:n] {
			out = append(out, fmt.Sprintf("%s'.%s%s%d", dim, dim, dim, k+1))
		}
		return out
	}
	var members []string
	switch g.rng.Intn(4) {
	case 0:
		members = topGroup()
	case 1:
		members = midGroup()
	default:
		members = append(topGroup(), midGroup()...)
	}
	return "{" + strings.Join(members, ", ") + "}"
}

func (g *adhocGen) dSet() string {
	mid := fmt.Sprintf("D'.DD%d", 1+g.rng.Intn(g.sh.dMid))
	switch g.rng.Intn(3) {
	case 0:
		return "{" + mid + "}"
	case 1:
		return fmt.Sprintf("{D''.D%d}", 1+g.rng.Intn(g.sh.dTop))
	default:
		return fmt.Sprintf("{%s, D''.D%d}", mid, 1+g.rng.Intn(g.sh.dTop))
	}
}

// paperVariants returns n distinct single-query texts: the paper's Q1–Q9
// first, then seeded member-substituted variants of them (each top, mid
// and D' member of a Q text replaced by a random member of its level).
func paperVariants(seed int64, sh shape, n int) []string {
	qs := workload.MDX()
	names := make([]string, 0, len(qs))
	for name := range qs {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var out []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, name := range names {
		add(qs[name])
	}
	for len(out) < n {
		add(substituteMembers(rng, sh, qs[names[rng.Intn(len(names))]]))
	}
	return out[:n]
}

// substituteMembers rewrites every member reference of a paper query: a
// top member such as A1 becomes a random top member, a mid member such
// as AA5 a random mid member, and a D mid member such as DD1 a random D
// mid member. Only whole tokens are rewritten, so CHILDREN, level names
// and the cube name are left alone.
func substituteMembers(rng *rand.Rand, sh shape, src string) string {
	var b strings.Builder
	i := 0
	for i < len(src) {
		j := i
		for j < len(src) && isTokenByte(src[j]) {
			j++
		}
		if j == i {
			b.WriteByte(src[i])
			i++
			continue
		}
		b.WriteString(rewriteToken(rng, sh, src[i:j]))
		i = j
	}
	return b.String()
}

func isTokenByte(c byte) bool {
	return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '\''
}

func rewriteToken(rng *rand.Rand, sh shape, tok string) string {
	// Member tokens are letters followed by digits: A1 (top), AA5 (mid),
	// DD1 (D'). Level tokens (A'', D') carry quotes and are left alone.
	k := strings.IndexAny(tok, "0123456789")
	if k <= 0 || strings.ContainsRune(tok, '\'') {
		return tok
	}
	letters := tok[:k]
	switch {
	case letters == "DD":
		return fmt.Sprintf("DD%d", 1+rng.Intn(sh.dMid))
	case len(letters) == 1 && letters != "D":
		return fmt.Sprintf("%s%d", letters, 1+rng.Intn(sh.top))
	case len(letters) == 2 && letters[0] == letters[1]:
		return fmt.Sprintf("%s%d", letters, 1+rng.Intn(sh.mid))
	}
	return tok
}

// zipfPicker draws indexes into a popularity-ranked list: rank 0 is the
// most popular.
type zipfPicker struct{ z *rand.Zipf }

func newZipfPicker(rng *rand.Rand, n int) zipfPicker {
	return zipfPicker{z: rand.NewZipf(rng, 1.1, 1, uint64(n-1))}
}

func (p zipfPicker) pick() int { return int(p.z.Uint64()) }

// arrival is one open-loop request: which text, due when (offset from
// the start of the timed phase).
type arrival struct {
	text int
	at   time.Duration
}

// poissonArrivals schedules requests at exponential gaps for the given
// rate until the horizon, drawing texts by Zipf popularity.
func poissonArrivals(seed int64, rate float64, horizon time.Duration, ntexts int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	pick := newZipfPicker(rng, ntexts)
	var out []arrival
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= horizon {
			return out
		}
		out = append(out, arrival{text: pick.pick(), at: at})
	}
}

// factBatch is one maintenance cycle's appended facts: base-level codes
// and whole-dollar measures (exact under any summation order).
type factBatch struct {
	keys     [][4]int32
	measures []float64
}

// churnBatches generates the maintainer's appended fact batches.
func churnBatches(seed int64, sh shape, cycles, rows int) []factBatch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]factBatch, cycles)
	for c := range out {
		b := factBatch{keys: make([][4]int32, rows), measures: make([]float64, rows)}
		for r := 0; r < rows; r++ {
			for d := 0; d < 4; d++ {
				b.keys[r][d] = int32(rng.Intn(sh.baseCards[d]))
			}
			b.measures[r] = float64(rng.Intn(10000))
		}
		out[c] = b
	}
	return out
}
