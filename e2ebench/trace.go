package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span, or -1 for a request root.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// begin opens a span and returns its id.
func (t *tracer) begin(req int64, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: start, End: -1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere (one batch's
// work, copied into each request that rode in the batch).
func (t *tracer) record(req int64, parent int32, name string, start, end int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: start, End: end})
	return id
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the intervals, each clipped to
// [lo, hi]. Overlapping children (a batch's copies, parallel nodes) are
// counted once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curE {
			curE = max(curE, iv[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv[0], iv[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of it covered by its children. Unclosed spans count as empty.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[i] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// layerProfile is the traced run's time breakdown: total self time per
// layer span name, and the request roots' wall time and uncovered share.
type layerProfile struct {
	self      map[string]int64 // span name → summed self time
	count     map[string]int   // span name → spans recorded
	rootWall  int64            // summed duration of root spans named root
	rootOther int64            // summed self time of those roots
	roots     int
}

func profile(spans []span, root string) layerProfile {
	p := layerProfile{self: make(map[string]int64), count: make(map[string]int)}
	for i, st := range selfTimes(spans) {
		s := spans[i]
		if s.Parent < 0 {
			if s.Name == root && s.End >= s.Start {
				p.rootWall += s.End - s.Start
				p.rootOther += st
				p.roots++
			}
			continue
		}
		p.self[s.Name] += st
		p.count[s.Name]++
	}
	return p
}
