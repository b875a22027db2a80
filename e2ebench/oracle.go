package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"mdxopt/internal/exec"
	"mdxopt/internal/mdx"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
)

// digest is an order-independent fingerprint of one answer: per
// component query its group-by, aggregate and the multiset of (members,
// value) rows. Row order does not enter it, so the facade's formatted
// rows, the traced re-drive's raw groups and the oracle's folds compare
// equal exactly when they hold the same groups with the same values.
type digest uint64

// queryDigest accumulates one component query's rows.
type queryDigest struct {
	groupBy, agg string
	rows         int
	sum          uint64
}

func (d *queryDigest) addRow(members []string, value float64) {
	h := fnv.New64a()
	for _, m := range members {
		h.Write([]byte(m))
		h.Write([]byte{0})
	}
	var b [8]byte
	bits := math.Float64bits(value)
	for i := range b {
		b[i] = byte(bits >> (8 * i))
	}
	h.Write(b[:])
	d.rows++
	d.sum += mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer; it spreads row hashes before they
// are summed so that distinct row multisets rarely collide.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func combine(qs []queryDigest) digest {
	h := fnv.New64a()
	for _, q := range qs {
		fmt.Fprintf(h, "%s|%s|%d|%d;", q.groupBy, q.agg, q.rows, q.sum)
	}
	return digest(h.Sum64())
}

// resultDigest fingerprints engine results the way the facade formats
// them: member names at each query's non-ALL levels.
func resultDigest(schema *star.Schema, queries []*query.Query, results []*exec.Result) digest {
	qs := make([]queryDigest, len(queries))
	for i, q := range queries {
		qs[i] = queryDigest{groupBy: q.GroupByName(), agg: q.Agg.String()}
		var members []string
		for _, g := range results[i].Groups {
			members = members[:0]
			for d, l := range q.Levels {
				if l != schema.Dims[d].AllLevel() {
					members = append(members, schema.Dims[d].MemberName(l, g.Keys[d]))
				}
			}
			qs[i].addRow(members, g.Value)
		}
	}
	return combine(qs)
}

// cubeLevel is the hierarchy level the oracle cube keeps per dimension:
// every generated query groups at this level or coarser.
const cubeLevel = 1

// oracle answers SUM queries from a dense in-memory cube of the fact
// table folded to cubeLevel on every dimension. It shares no code with
// the engine's operators; it is cross-checked against exec.Naive when
// built, and fact batches appended during a run are folded into it so
// it can answer at any later state of the base table.
type oracle struct {
	schema *star.Schema
	card   [4]int // cube members per dimension
	sum    []float64
	count  []int64
}

func newOracle(schema *star.Schema) (*oracle, error) {
	if schema.NumDims() != 4 {
		return nil, fmt.Errorf("oracle: schema has %d dimensions, want 4", schema.NumDims())
	}
	o := &oracle{schema: schema}
	n := 1
	for d := range o.card {
		o.card[d] = int(schema.Dims[d].Card(cubeLevel))
		n *= o.card[d]
	}
	o.sum = make([]float64, n)
	o.count = make([]int64, n)
	return o, nil
}

// foldBase folds every row of a database's base fact table.
func (o *oracle) foldBase(db *star.Database) error {
	var keys [4]int32
	return db.Base().Heap.Scan(func(_ int64, k []int32, m []float64) error {
		copy(keys[:], k)
		o.add(keys, m[0])
		return nil
	})
}

// add folds one base-level fact.
func (o *oracle) add(keys [4]int32, measure float64) {
	idx := 0
	for d := range keys {
		idx = idx*o.card[d] + int(o.schema.Dims[d].RollUp(keys[d], 0, cubeLevel))
	}
	o.sum[idx] += measure
	o.count[idx]++
}

func (o *oracle) addBatch(b factBatch) {
	for r, k := range b.keys {
		o.add(k, b.measures[r])
	}
}

// dimPick is one dimension's selected cube members and the code each
// rolls up to at the query's level.
type dimPick struct{ cube, out []int32 }

func (o *oracle) picks(q *query.Query, d int) (dimPick, error) {
	dim := o.schema.Dims[d]
	l := q.Levels[d]
	if l < cubeLevel {
		return dimPick{}, fmt.Errorf("oracle: %s groups %s below the cube level", q.GroupByName(), dim.Name)
	}
	set := q.MemberSet(d)
	var p dimPick
	for c := 0; c < o.card[d]; c++ {
		up := dim.RollUp(int32(c), cubeLevel, l)
		if set != nil && !set[up] {
			continue
		}
		p.cube = append(p.cube, int32(c))
		p.out = append(p.out, up)
	}
	return p, nil
}

// digestText translates an MDX text and answers every component query
// from the cube.
func (o *oracle) digestText(text string) (digest, error) {
	queries, err := mdx.ParseAndTranslate(o.schema, text)
	if err != nil {
		return 0, err
	}
	qs := make([]queryDigest, len(queries))
	for i, q := range queries {
		if qs[i], err = o.answer(q); err != nil {
			return 0, err
		}
	}
	return combine(qs), nil
}

func (o *oracle) answer(q *query.Query) (queryDigest, error) {
	if q.Agg != query.Sum {
		return queryDigest{}, fmt.Errorf("oracle: %s uses %s, only SUM is supported", q.GroupByName(), q.Agg)
	}
	var p [4]dimPick
	for d := range p {
		var err error
		if p[d], err = o.picks(q, d); err != nil {
			return queryDigest{}, err
		}
	}
	type group struct {
		keys [4]int32
		sum  float64
	}
	groups := make(map[[4]int32]*group)
	for ia, a := range p[0].cube {
		for ib, b := range p[1].cube {
			for ic, c := range p[2].cube {
				base := ((int(a)*o.card[1]+int(b))*o.card[2] + int(c)) * o.card[3]
				for id, dd := range p[3].cube {
					idx := base + int(dd)
					if o.count[idx] == 0 {
						continue
					}
					k := [4]int32{p[0].out[ia], p[1].out[ib], p[2].out[ic], p[3].out[id]}
					g := groups[k]
					if g == nil {
						g = &group{keys: k}
						groups[k] = g
					}
					g.sum += o.sum[idx]
				}
			}
		}
	}
	qd := queryDigest{groupBy: q.GroupByName(), agg: q.Agg.String()}
	var members []string
	for _, g := range groups {
		members = members[:0]
		for d, l := range q.Levels {
			if l != o.schema.Dims[d].AllLevel() {
				members = append(members, o.schema.Dims[d].MemberName(l, g.keys[d]))
			}
		}
		qd.addRow(members, g.sum)
	}
	return qd, nil
}

// crossCheck compares the oracle with exec.Naive on the given texts; the
// cube must agree with the engine's straight-line oracle before it is
// trusted to judge a run.
func (o *oracle) crossCheck(db *star.Database, texts []string) error {
	env := exec.NewEnv(db.Snapshot())
	for _, text := range texts {
		queries, err := mdx.ParseAndTranslate(db.Schema, text)
		if err != nil {
			return err
		}
		results := make([]*exec.Result, len(queries))
		for i, q := range queries {
			if results[i], err = exec.Naive(env, q); err != nil {
				return err
			}
		}
		want := resultDigest(db.Schema, queries, results)
		got, err := o.digestText(text)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("oracle: cube disagrees with exec.Naive on %q", text)
		}
	}
	return nil
}
