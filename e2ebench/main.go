// Command e2ebench is mdxopt's end-to-end benchmark. It builds the paper
// database, drives one workload (adhoc, serve or churn) with MDX text
// through the public mdxopt facade, checks every answer against an
// oracle, and prints one JSON result line. With --trace 1 it also
// re-drives the workload layer by layer with spans and prints per-layer
// metrics instead. See NOTES.md for the workloads and metrics.
//
//	go run . --workload adhoc --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(res.meta); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res.line); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (*runConfig, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: adhoc, serve or churn")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = also re-drive with spans and report per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/e2ebench", "directory for databases, spill files and spans")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the timed phase to this file")
	commit := fs.String("commit", "unknown", "source commit, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, ok := workloads[*name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want adhoc, serve or churn)", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return nil, fmt.Errorf("bad --seconds %d or --trace %d", *seconds, *trace)
	}
	dir, err := filepath.Abs(*workdir)
	if err != nil {
		return nil, err
	}
	return &runConfig{
		w: w, seed: *seed, seconds: *seconds, duration: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scale: paperScale, workdir: dir, cpuprofile: *cpuprofile, commit: *commit,
	}, nil
}

// paperScale sizes the database: datagen.PaperSpec(0.1) holds 200,000
// facts.
const paperScale = 0.1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	meta map[string]any
	line resultLine
}

// execute runs one invocation and assembles its output.
func execute(cfg *runConfig) (*result, error) {
	dir := cfg.runDir()
	cfg.spillDir = filepath.Join(dir, "spill")
	if err := os.MkdirAll(cfg.spillDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	openFacadeEngine := func(d string) (engine, error) { return openFacade(d, cfg.w, cfg) }
	dbDir := filepath.Join(dir, "db")

	// Untraced: set up three times (set-up time is their median), then
	// measure the last set-up's database.
	setups := 3
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	var eng engine
	for i := 0; i < setups; i++ {
		if eng != nil {
			if err := eng.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if eng, took, err = b.setup(dbDir, openFacadeEngine); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	fac := eng.(*facadeEngine)
	stopProfile, err := startProfile(cfg.cpuprofile)
	if err != nil {
		eng.close()
		return nil, err
	}
	p, err := b.run(eng)
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		eng.close()
		return nil, err
	}
	planHitRatio := fac.planCacheHitRatio(int64(len(p.samples)))
	if err := eng.close(); err != nil {
		return nil, err
	}
	diskMiB, err := dirMiB(dbDir)
	if err != nil {
		return nil, err
	}
	wrong, err := b.verify(p)
	if err != nil {
		return nil, err
	}
	s := summarize(cfg, p, wrong)

	res := &result{meta: map[string]any{
		"e2ebench":       cfg.w.name,
		"env":            envMeta(cfg),
		"samples":        len(p.samples),
		"p99_ms":         s.p99,
		"p99_beyond":     s.p99Beyond,
		"cpu_steal_frac": p.stealFrac,
		"errors":         s.errors,
		"wrong":          wrong,
		"maint_cycles":   len(p.maintLat),
		"maint_errors":   p.maintErrs,
		"error_rate":     ratio(float64(s.failed), float64(s.attempted)),
		"valid":          s.valid,
		"setup_s":        setupS,
	}}
	res.line = resultLine{Correct: s.failed == 0 && s.valid, Attempted: s.attempted, Failed: s.failed}
	if !cfg.trace {
		res.line.Metrics = map[string]metric{
			"setup_s":     {midMedian(setupS), "s"},
			"rps":         {s.rps, "1/s"},
			"p50_ms":      {s.p50, "ms"},
			"p90_ms":      {s.p90, "ms"},
			"peak_rss_mb": {p.peakRSS, "MiB"},
			"disk_mb":     {diskMiB, "MiB"},
		}
		return res, finite(res.line.Metrics)
	}

	// Traced: a fresh database re-driven layer by layer.
	tr := newTracer()
	var te *tracedEngine
	openTracedEngine := func(d string) (engine, error) {
		var err error
		te, err = openTraced(d, cfg.w, cfg)
		return te, err
	}
	if _, _, err = b.setup(dbDir, openTracedEngine); err != nil {
		return nil, err
	}
	before := te.snapshotCounters()
	te.acc = traceCounters{} // drop the warm-up's counts
	te.tr = tr
	tp, err := b.run(te)
	if err != nil {
		te.close()
		return nil, err
	}
	after := te.snapshotCounters()
	rowsRatio, err := viewRowsRatio(te.db)
	if err != nil {
		te.close()
		return nil, err
	}
	if err := te.close(); err != nil {
		return nil, err
	}
	twrong, err := b.verify(tp)
	if err != nil {
		return nil, err
	}
	ts := summarize(cfg, tp, twrong)
	mismatch := compareDigests(p, tp)
	spansPath := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.w.name, cfg.seed))
	if err := tr.writeJSONL(spansPath); err != nil {
		return nil, err
	}
	res.meta["traced"] = map[string]any{"samples": len(tp.samples), "errors": ts.errors, "wrong": twrong,
		"facade_mismatch": mismatch, "spans": spansPath, "spans_recorded": len(tr.spans)}
	res.line.Correct = res.line.Correct && ts.failed == 0 && mismatch == 0
	res.line.Attempted += ts.attempted
	res.line.Failed += ts.failed + mismatch
	res.line.Metrics = layerMetrics(layerInputs{
		facade: p, facadeSummary: s, tracedSummary: ts,
		prof: profile(tr.spans, "request"), acc: te.acc, before: before, after: after,
		planHitRatio: planHitRatio, viewRowsRatio: rowsRatio,
	})
	return res, finite(res.line.Metrics)
}

// startProfile starts a CPU profile into path (none when path is empty)
// and returns the function that stops it.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// compareDigests counts texts the traced run answered differently from
// the facade at the same epoch.
func compareDigests(facade, traced *phase) int {
	type key struct {
		text  string
		epoch uint64
	}
	seen := make(map[key]digest)
	for _, s := range facade.samples {
		if s.err == nil {
			seen[key{facade.texts[s.text], s.epoch}] = s.dig
		}
	}
	n := 0
	for _, s := range traced.samples {
		if s.err != nil {
			continue
		}
		if d, ok := seen[key{traced.texts[s.text], s.epoch}]; ok && d != s.dig {
			n++
		}
	}
	return n
}

// summary is a phase's end-to-end figures.
type summary struct {
	attempted, failed, errors int
	figures
	valid      bool
	genLateP99 float64
}

func summarize(cfg *runConfig, p *phase, wrong int) summary {
	s := summary{attempted: len(p.samples) + len(p.maintLat), valid: true}
	for _, x := range p.samples {
		if x.err != nil {
			s.errors++
		}
	}
	s.failed = s.errors + wrong + p.maintErrs
	s.figures = chunkFigures(p.start, p.samples)
	if cfg.w.rate > 0 {
		s.genLateP99 = percentile(p.genLate, 99)
		// The run measured the offered rate only if the generator kept
		// its schedule and requests did not pile up.
		s.valid = s.genLateP99 <= maxGenLateMs && p.backlogEnd <= backlogLimit(cfg.w.rate)
	}
	return s
}

// Validity limits for open-loop runs. The generator is a goroutine on a
// busy 2-core box, so it can wake one or two 10 ms preemption slices
// late; its lateness is inside every latency anyway, since requests are
// timed from their due time. A p99 beyond five slices means it fell
// behind its schedule.
const maxGenLateMs = 50

func backlogLimit(rate float64) int64 { return max(16, int64(rate/10)) }

func envMeta(cfg *runConfig) map[string]any {
	w := cfg.w
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": cfg.commit, "scale": cfg.scale, "seed": cfg.seed, "seconds": cfg.seconds,
		"pool_frames": w.poolFrames, "mem_budget": w.memBudget, "result_cache_budget": w.cacheBudget,
		"offered_rps": w.rate, "clients": w.clients, "batching": w.batching,
		"maint_rows": w.maintRows, "maint_cycles_per_s": w.cyclesPerS, "trace": cfg.trace,
	}
}

// finite rejects NaN and infinite metrics, which JSON cannot carry.
func finite(ms map[string]metric) error {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}
