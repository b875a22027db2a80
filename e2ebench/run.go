package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdxopt/internal/datagen"
	"mdxopt/internal/star"
	"mdxopt/internal/workload"
)

// workloadSpec fixes one workload's engine settings and load shape.
type workloadSpec struct {
	name        string
	poolFrames  int
	clients     int     // closed-loop query clients (adhoc, churn)
	batching    bool    // route requests through the admission scheduler
	cacheBudget int64   // result cache bytes; 0 = off
	memBudget   int64   // broker budget; 0 = track only
	rate        float64 // open-loop offered rate in requests/s (serve)
	texts       int     // distinct texts (serve, churn)
	warmup      int     // warm-up requests after open
	maintRows   int     // fact rows appended per maintenance cycle (churn)
	cyclesPerS  float64 // maintenance cycles per --seconds (churn)
}

// The workloads. Sizes are for the paper database at scale 0.1: 200,000
// facts, 9 stored group-bys of about 2,720 heap pages (21 MiB).
var workloads = map[string]*workloadSpec{
	// CPU-bound analyst loop: distinct expressions, a pool holding
	// every page, no batching and no result cache.
	"adhoc": {name: "adhoc", poolFrames: 4096, clients: 2, warmup: 150},
	// Open-loop serving: Zipf-popular paper queries through the batching
	// scheduler and result cache over a 256-frame (2 MiB) pool.
	"serve": {name: "serve", poolFrames: 256, batching: true, cacheBudget: 48 << 10,
		memBudget: 256 << 20, rate: 500, texts: 300, warmup: 100},
	// Writes beside reads: one query client while a maintainer appends,
	// refreshes and compacts. A fixed cycle count keeps the appended rows,
	// and so disk_mb, independent of the host's speed; 3.5 cycles per
	// second is about the rate the maintainer runs them back to back, so
	// the phase lasts about --seconds.
	"churn": {name: "churn", poolFrames: 256, clients: 1, texts: 300, warmup: 50,
		maintRows: 2000, cyclesPerS: 3.5},
}

// serve's batching scheduler settings. The 20 ms window (default 3 ms)
// holds about ten requests per batch at 500/s. With shorter windows
// serve's latency followed CPU contention on the host so closely that
// its spread over ten seeds exceeded the 0.25 bound: beside a busy-loop
// process competing for the two cores, p50 rose 16% with a 5 ms window,
// 18% with 10 ms and 3% with 20 ms (see NOTES.md). The queue bound is
// about half a second of arrivals, so a stall of the host does not turn
// into ErrBusy refusals (the default of 64 is an eighth of a second).
const (
	batchWindow    = 20 * time.Millisecond
	admissionQueue = 256
)

// runConfig is one invocation's settings.
type runConfig struct {
	w          *workloadSpec
	seed       int64
	seconds    int
	duration   time.Duration // timed phase; seconds unless a test shortens it
	trace      bool
	scale      float64
	workdir    string
	spillDir   string
	cpuprofile string
	commit     string
}

// engine is what a phase drives: the public facade (untraced) or the
// layer-by-layer re-drive (traced).
type engine interface {
	query(req int64, text string) (digest, uint64, error)
	maintain(cycle int64, b factBatch, compact *viewRef) ([]uint64, error)
	epoch() uint64
	close() error
}

// viewRef names a stored group-by by level vector and level names.
type viewRef struct {
	levels []int
	names  []string
}

// sample is one MDX request's outcome.
type sample struct {
	text  int
	epoch uint64
	dig   digest
	lat   time.Duration
	done  time.Time
	err   error
}

// phase is one timed run of a workload against one engine.
type phase struct {
	samples    []sample
	texts      []string
	start      time.Time
	wall       time.Duration
	maintLat   []float64 // ms per maintenance cycle
	maintErrs  int
	epochs     map[uint64]int // epoch → fact batches visible at it (churn)
	genLate    []float64      // ms the open-loop generator sent late
	backlogEnd int64
	wchar      int64
	stealFrac  float64 // share of CPU time the hypervisor stole
	peakRSS    float64
	rows       int // fact rows appended
}

// bench holds what every phase of one invocation shares.
type bench struct {
	cfg     *runConfig
	spec    datagen.Spec
	sh      shape
	views   []viewRef
	batches []factBatch
	oracle  *oracle
}

func newBench(cfg *runConfig) (*bench, error) {
	spec := datagen.PaperSpec(cfg.scale)
	schema, err := datagen.BuildSchema(spec)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, spec: spec, sh: newShape(spec.Cards)}
	for _, levels := range spec.Views {
		v := viewRef{levels: levels}
		for d, l := range levels {
			v.names = append(v.names, schema.Dims[d].LevelName(l))
		}
		b.views = append(b.views, v)
	}
	if w := cfg.w; w.cyclesPerS > 0 {
		cycles := max(4, int(w.cyclesPerS*cfg.duration.Seconds()))
		b.batches = churnBatches(cfg.seed^0x6368, b.sh, cycles, w.maintRows)
	}
	return b, nil
}

// setup builds a fresh database in dir, opens an engine on it and warms
// it up, returning the engine and the set-up time. The first call also
// builds the oracle from the fresh database; that time is not set-up.
func (b *bench) setup(dir string, open func(dir string) (engine, error)) (engine, time.Duration, error) {
	start := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	sdb, err := datagen.Build(dir, b.spec)
	if err != nil {
		return nil, 0, fmt.Errorf("build database: %w", err)
	}
	var excluded time.Duration
	if b.oracle == nil {
		t := time.Now()
		err = b.buildOracle(sdb)
		excluded = time.Since(t)
	}
	if cerr := sdb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	eng, err := open(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("open database: %w", err)
	}
	if err := b.warmUp(eng); err != nil {
		eng.close()
		return nil, 0, err
	}
	return eng, time.Since(start) - excluded, nil
}

// warmUpGroup is how many warm-up requests a batching workload sends at
// once: one full batch at the scheduler's default limit, which it runs
// without waiting out its window, so set-up time is work, not waits.
const warmUpGroup = 16

// warmUp sends the warm-up requests: one at a time, or in concurrent
// groups of warmUpGroup when the workload batches.
func (b *bench) warmUp(eng engine) error {
	texts := b.warmupTexts()
	group := 1
	if b.cfg.w.batching {
		group = warmUpGroup
	}
	for lo := 0; lo < len(texts); lo += group {
		hi := min(lo+group, len(texts))
		errs := make([]error, hi-lo)
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, _, err := eng.query(-int64(i)-1, texts[i]); err != nil {
					errs[i-lo] = fmt.Errorf("warm-up %q: %w", texts[i], err)
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *bench) buildOracle(sdb *star.Database) error {
	o, err := newOracle(sdb.Schema)
	if err != nil {
		return err
	}
	if err := o.foldBase(sdb); err != nil {
		return err
	}
	check := paperTexts()
	g := newAdhocGen(b.cfg.seed, b.sh)
	for i := 0; i < 4; i++ {
		check = append(check, g.next())
	}
	if err := o.crossCheck(sdb, check); err != nil {
		return err
	}
	b.oracle = o
	return nil
}

func paperTexts() []string {
	qs := workload.MDX()
	var out []string
	for _, s := range qs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// warmupTexts are the requests run after open and before timing, drawn
// from streams the timed phase does not use.
func (b *bench) warmupTexts() []string {
	w := b.cfg.w
	out := paperTexts()
	switch {
	case w.name == "adhoc":
		g := newAdhocGen(b.cfg.seed^0x7761726d, b.sh)
		for i := 0; i < w.warmup; i++ {
			out = append(out, g.next())
		}
	default:
		texts := paperVariants(b.cfg.seed, b.sh, w.texts)
		pick := newZipfPicker(rand.New(rand.NewSource(b.cfg.seed^0x7761726d)), len(texts))
		for i := 0; i < w.warmup; i++ {
			out = append(out, texts[pick.pick()])
		}
	}
	return out
}

// source hands closed-loop clients their next request text and its
// index in the phase's texts.
type source interface {
	next(client int) (int, string)
}

// adhocSource yields one seeded stream of distinct expressions shared by
// all clients.
type adhocSource struct {
	mu    sync.Mutex
	gen   *adhocGen
	texts []string
}

func (s *adhocSource) next(int) (int, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.gen.next()
	s.texts = append(s.texts, t)
	return len(s.texts) - 1, t
}

// popularSource draws each client's requests by Zipf popularity from a
// fixed list of texts.
type popularSource struct {
	texts []string
	picks []zipfPicker
}

func newPopularSource(seed int64, texts []string, clients int) *popularSource {
	s := &popularSource{texts: texts}
	for c := 0; c < clients; c++ {
		s.picks = append(s.picks, newZipfPicker(rand.New(rand.NewSource(seed+int64(c))), len(texts)))
	}
	return s
}

func (s *popularSource) next(client int) (int, string) {
	i := s.picks[client].pick()
	return i, s.texts[i]
}

// run executes the workload's timed phase on eng.
func (b *bench) run(eng engine) (*phase, error) {
	w, cfg := b.cfg.w, b.cfg
	// Return set-up garbage to the OS so the peak covers the timed
	// phase's own footprint.
	debug.FreeOSMemory()
	rssErr := resetPeakRSS()
	w0, err := writtenBytes()
	if err != nil {
		return nil, err
	}
	steal0, stealErr := stealTicks()
	p := &phase{}
	start := time.Now()
	p.start = start
	switch w.name {
	case "adhoc":
		src := &adhocSource{gen: newAdhocGen(cfg.seed, b.sh)}
		p.samples = closedLoop(eng, src, w.clients, start.Add(cfg.duration), nil)
		p.texts = src.texts
	case "serve":
		p.texts = paperVariants(cfg.seed, b.sh, w.texts)
		arrivals := poissonArrivals(cfg.seed^0x73657276, w.rate, cfg.duration, len(p.texts))
		p.samples, p.genLate, p.backlogEnd = openLoop(eng, p.texts, arrivals)
	case "churn":
		p.texts = paperVariants(cfg.seed, b.sh, w.texts)
		src := newPopularSource(cfg.seed^0x63687572, p.texts, w.clients)
		p.epochs = map[uint64]int{eng.epoch(): 0}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.samples = closedLoop(eng, src, w.clients, time.Time{}, stop)
		}()
		for c, batch := range b.batches {
			var compact *viewRef
			if c%4 == 3 {
				compact = &b.views[(c/4)%len(b.views)]
			}
			t := time.Now()
			epochs, err := eng.maintain(int64(1)<<40|int64(c), batch, compact)
			p.maintLat = append(p.maintLat, ms(time.Since(t)))
			for _, e := range epochs {
				p.epochs[e] = c + 1
			}
			if err != nil {
				p.maintErrs++
				fmt.Fprintf(os.Stderr, "e2ebench: maintenance cycle %d: %v\n", c, err)
			}
			p.rows += len(batch.keys)
		}
		close(stop)
		wg.Wait()
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	p.wall = time.Since(start)
	w1, err := writtenBytes()
	if err != nil {
		return nil, err
	}
	p.wchar = w1 - w0
	if steal1, err := stealTicks(); stealErr == nil && err == nil {
		// /proc/stat counts in USER_HZ, 100 ticks a second on Linux.
		p.stealFrac = float64(steal1-steal0) / 100 / p.wall.Seconds() / float64(runtime.NumCPU())
	}
	if rssErr == nil {
		p.peakRSS, rssErr = peakRSSMiB()
	}
	return p, rssErr
}

// closedLoop runs clients that each send their next request when the
// previous one returns, until the deadline passes or stop closes.
func closedLoop(eng engine, src source, clients int, deadline time.Time, stop <-chan struct{}) []sample {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				select {
				case <-stop:
					return
				default:
				}
				idx, text := src.next(c)
				t := time.Now()
				d, epoch, err := eng.query(int64(c)<<32|i, text)
				done := time.Now()
				per[c] = append(per[c], sample{text: idx, epoch: epoch, dig: d, lat: done.Sub(t), done: done, err: err})
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// openLoop fires each arrival at its due time on its own goroutine and
// times it from that due time. It returns how late the generator sent
// each request (ms) and how many requests were still in flight when the
// last one was sent.
func openLoop(eng engine, texts []string, arrivals []arrival) ([]sample, []float64, int64) {
	samples := make([]sample, len(arrivals))
	late := make([]float64, len(arrivals))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due))
		inflight.Add(1)
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			d, epoch, err := eng.query(int64(i), texts[a.text])
			done := time.Now()
			samples[i] = sample{text: a.text, epoch: epoch, dig: d, lat: done.Sub(due), done: done, err: err}
			inflight.Add(-1)
		}(i, a, due)
	}
	backlog := inflight.Load()
	wg.Wait()
	return samples, late, backlog
}

// verify checks every answered request against the oracle and returns
// how many answers were wrong. With epochs set (churn), each answer is
// checked against the oracle folded up to the fact batches visible at
// the epoch the answer reports. The oracle's answers to the distinct
// texts at one state of the fact table are computed on every core.
func (b *bench) verify(p *phase) (int, error) {
	// Answered requests by the number of fact batches visible to them
	// (always 0 outside churn).
	atBatches := make(map[int][]int)
	for i, s := range p.samples {
		if s.err != nil {
			continue
		}
		n := 0
		if p.epochs != nil {
			var ok bool
			if n, ok = p.epochs[s.epoch]; !ok {
				return 0, fmt.Errorf("answer at unknown epoch %d", s.epoch)
			}
		}
		atBatches[n] = append(atBatches[n], i)
	}
	levels := make([]int, 0, len(atBatches))
	for n := range atBatches {
		levels = append(levels, n)
	}
	sort.Ints(levels)
	o := b.oracle.clone()
	folded, wrong := 0, 0
	for _, n := range levels {
		for folded < n {
			o.addBatch(b.batches[folded])
			folded++
		}
		want := make(map[int]digest)
		for _, i := range atBatches[n] {
			want[p.samples[i].text] = 0
		}
		if err := o.digestAll(p.texts, want); err != nil {
			return 0, err
		}
		for _, i := range atBatches[n] {
			if s := p.samples[i]; s.dig != want[s.text] {
				wrong++
			}
		}
	}
	return wrong, nil
}

// digestAll fills want, keyed by index into texts, with the oracle's
// digest of each text, spreading the texts over GOMAXPROCS goroutines.
func (o *oracle) digestAll(texts []string, want map[int]digest) error {
	idx := make([]int, 0, len(want))
	for i := range want {
		idx = append(idx, i)
	}
	got := make([]digest, len(idx))
	errs := make([]error, len(idx))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(idx); k = int(next.Add(1) - 1) {
				got[k], errs[k] = o.digestText(texts[idx[k]])
			}
		}()
	}
	wg.Wait()
	for k, i := range idx {
		if errs[k] != nil {
			return errs[k]
		}
		want[i] = got[k]
	}
	return nil
}

func (o *oracle) clone() *oracle {
	c := *o
	c.sum = append([]float64(nil), o.sum...)
	c.count = append([]int64(nil), o.count...)
	return &c
}

// runDir is the scratch directory of one invocation inside the work dir.
func (cfg *runConfig) runDir() string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", cfg.w.name, cfg.seed, os.Getpid()))
}
