package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"mdxopt/internal/core"
	"mdxopt/internal/cost"
	"mdxopt/internal/exec"
	"mdxopt/internal/mdx"
	"mdxopt/internal/mem"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
	"mdxopt/internal/rescache"
	"mdxopt/internal/sched"
	"mdxopt/internal/star"
	"mdxopt/internal/storage"
)

// tracedEngine re-drives requests through the layers in the order the
// facade calls them — star pin, mdx parse and translate, plan + core
// optimize, core.Run (or sched Submit → Exec when batching), rescache
// admission, result formatting — recording a span around each call and
// summing the counters each layer exposes. It skips the facade's plan
// caches and plan rendering; harness.trace_overhead_frac includes that
// difference.
type tracedEngine struct {
	db       *star.Database
	tr       *tracer
	broker   *mem.Broker
	rc       *rescache.Cache
	sch      *sched.Scheduler
	spillDir string

	mu  sync.Mutex
	acc traceCounters
}

// traceCounters sums the per-request counters of the traced run.
type traceCounters struct {
	requests   int64
	queries    int64
	classes    int64
	dagNodes   int64
	workerPeak int
	batchSize  int64
	exec       exec.Stats
	estMicros  float64 // optimizer GlobalCost of unbatched plans
	simMicros  float64 // their measured work priced by the same model
	retiredMax int
	publishNs  []int64
}

type reqKey struct{}

// reqInfo links a scheduler submission back to its request's span.
type reqInfo struct {
	req    int64
	submit int32
}

// openTraced opens the engine with tracing off; set tr to start
// recording spans.
func openTraced(dir string, w *workloadSpec, cfg *runConfig) (*tracedEngine, error) {
	db, err := star.OpenWith(dir, storage.PoolOpts{Frames: w.poolFrames, Shards: 8})
	if err != nil {
		return nil, err
	}
	e := &tracedEngine{db: db, broker: mem.New(w.memBudget), spillDir: cfg.spillDir}
	if w.cacheBudget > 0 {
		e.rc = rescache.New(w.cacheBudget, e.broker)
	}
	if w.batching {
		e.sch = sched.New(sched.Config{Window: batchWindow, MaxQueue: admissionQueue, Run: e.runBatch})
	}
	return e, nil
}

func (e *tracedEngine) close() error {
	if e.sch != nil {
		e.sch.Stop()
	}
	return e.db.Close()
}

func (e *tracedEngine) epoch() uint64 { return e.db.MaintainStats().Epoch }

func (e *tracedEngine) query(req int64, text string) (digest, uint64, error) {
	if e.sch != nil {
		return e.queryBatched(req, text)
	}
	tr := e.tr
	root := tr.begin(req, -1, "request")
	s := tr.begin(req, root, "star.pin")
	snap, release := e.db.Pin()
	tr.end(s)
	defer func() {
		s := tr.begin(req, root, "star.pin")
		release()
		tr.end(s)
		tr.end(root)
	}()

	s = tr.begin(req, root, "mdx.parse")
	expr, err := mdx.Parse(text)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	s = tr.begin(req, root, "mdx.translate")
	queries, err := mdx.Translate(snap.Schema, expr)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	if len(queries) == 0 {
		return 0, 0, errors.New("expression denotes no queries")
	}

	s = tr.begin(req, root, "core.optimize")
	est := plan.NewEstimator(snap)
	est.Cache = e.rc
	est.Gen = snap.Epoch
	g, err := core.Optimize(est, queries, core.GG)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}

	s = tr.begin(req, root, "core.run")
	env := exec.NewEnv(snap)
	env.Mem = e.broker
	env.SpillDir = e.spillDir
	var st exec.Stats
	ex, err := core.Run(env, g, queries, &st, core.ExecOptions{})
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}

	s = tr.begin(req, root, "format")
	d := resultDigest(snap.Schema, queries, ex.Results)
	tr.end(s)

	estMicros := est.GlobalCost(g)
	e.mu.Lock()
	e.note(len(queries), len(ex.Classes), ex.DAGNodes, ex.WorkerPeak, 0, st)
	e.acc.estMicros += estMicros
	e.acc.simMicros += st.SimulatedMicros(cost.Default())
	e.mu.Unlock()
	return d, snap.Epoch, nil
}

// note adds one request's counters; callers hold e.mu.
func (e *tracedEngine) note(queries, classes, dagNodes, workerPeak, batchSize int, st exec.Stats) {
	a := &e.acc
	a.requests++
	a.queries += int64(queries)
	a.classes += int64(classes)
	a.dagNodes += int64(dagNodes)
	a.workerPeak = max(a.workerPeak, workerPeak)
	a.batchSize += int64(batchSize)
	a.exec.Add(st)
}

func (e *tracedEngine) queryBatched(req int64, text string) (digest, uint64, error) {
	tr := e.tr
	root := tr.begin(req, -1, "request")
	defer tr.end(root)
	s := tr.begin(req, root, "mdx.parse")
	expr, err := mdx.Parse(text)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	s = tr.begin(req, root, "mdx.translate")
	queries, err := mdx.Translate(e.db.Schema, expr)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	if len(queries) == 0 {
		return 0, 0, errors.New("expression denotes no queries")
	}

	s = tr.begin(req, root, "sched.submit")
	ctx := context.WithValue(context.Background(), reqKey{}, reqInfo{req: req, submit: s})
	out, err := e.sch.Submit(ctx, text, queries)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}

	s = tr.begin(req, root, "rescache.put")
	model := cost.Default()
	for i, r := range out.Results {
		rows := make([]rescache.Row, len(r.Groups))
		for j, grp := range r.Groups {
			rows[j] = rescache.Row{Keys: grp.Keys, Value: grp.Value}
		}
		e.rc.Put(out.Queries[i], out.SnapshotEpoch, rows, out.PerQuery[i].SimulatedMicros(model))
	}
	tr.end(s)

	s = tr.begin(req, root, "format")
	d := resultDigest(e.db.Schema, out.Queries, out.Results)
	tr.end(s)

	var st exec.Stats
	for _, qs := range out.PerQuery {
		st.Add(qs)
	}
	e.mu.Lock()
	e.note(len(queries), len(out.Classes), out.DAGNodes, out.WorkerPeak, out.BatchSize, st)
	e.mu.Unlock()
	return d, out.SnapshotEpoch, nil
}

// interval is one batch-level layer call, copied into the trace of every
// request that rode in the batch.
type interval struct {
	name       string
	start, end int64
}

// runBatch is the scheduler's Run callback, mirroring the facade's: pin
// a snapshot, plan the merged set in composition order, claim its
// memory estimate from the broker, and hand the batch to sched.Exec.
func (e *tracedEngine) runBatch(subs []*sched.Submission) {
	tr := e.tr
	start := tr.now()
	var ivs []interval
	t := tr.now()
	snap, release := e.db.Pin()
	ivs = append(ivs, interval{"star.pin", t, tr.now()})

	env := exec.NewEnv(snap)
	env.Mem = e.broker
	env.SpillDir = e.spillDir
	planFn := func(subQ [][]*query.Query, keys []string) ([][]*query.Query, *plan.Global, error) {
		t := tr.now()
		defer func() { ivs = append(ivs, interval{"core.optimize", t, tr.now()}) }()
		order := make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
		var merged []*query.Query
		for _, i := range order {
			merged = append(merged, subQ[i]...)
		}
		est := plan.NewEstimator(snap)
		est.Cache = e.rc
		est.Gen = snap.Epoch
		g, err := core.Optimize(est, merged, core.GG)
		if err != nil {
			return nil, nil, err
		}
		if e.rc != nil {
			for _, cp := range g.Cached {
				e.rc.Touch(cp.Entry)
			}
			e.rc.RecordHits(int64(len(g.Cached)))
			e.rc.RecordMisses(int64(len(merged) - len(g.Cached)))
		}
		return subQ, g, nil
	}
	est := plan.NewEstimator(snap)
	est.Workers = 1
	admit := func(ctx context.Context, g *plan.Global) (func(), error) {
		t := tr.now()
		defer func() { ivs = append(ivs, interval{"mem.admit", t, tr.now()}) }()
		cl, err := e.broker.AdmitClaim(ctx, est.GlobalMemory(g))
		if err != nil {
			return nil, err
		}
		env.Mem = cl.Broker()
		return cl.Release, nil
	}
	sched.Exec(env, planFn, admit, subs, core.ExecOptions{Workers: 1})
	t = tr.now()
	release()
	ivs = append(ivs, interval{"star.pin", t, tr.now()})
	end := tr.now()
	if tr == nil {
		return
	}
	for _, sub := range subs {
		info, ok := sub.Context().Value(reqKey{}).(reqInfo)
		if !ok {
			continue
		}
		x := tr.record(info.req, info.submit, "sched.exec", start, end)
		for _, iv := range ivs {
			tr.record(info.req, x, iv.name, iv.start, iv.end)
		}
	}
}

// maintain is facadeEngine.maintain on the star layer, with a span per
// step under one cycle root.
func (e *tracedEngine) maintain(cycle int64, b factBatch, compact *viewRef) ([]uint64, error) {
	tr := e.tr
	root := tr.begin(cycle, -1, "maint.cycle")
	defer tr.end(root)
	var epochs []uint64
	step := func(name string, fn func() error) error {
		s := tr.begin(cycle, root, name)
		err := fn()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ms := e.db.MaintainStats()
		epochs = append(epochs, ms.Epoch)
		e.mu.Lock()
		e.acc.publishNs = append(e.acc.publishNs, ms.LastPublishNanos)
		e.acc.retiredMax = max(e.acc.retiredMax, ms.RetiredFiles)
		e.mu.Unlock()
		return nil
	}
	err := step("star.load", func() error {
		app := e.db.Base().Heap.NewAppender()
		for r, k := range b.keys {
			if err := app.Append(k[:], b.measures[r:r+1]); err != nil {
				app.Close()
				return err
			}
		}
		if err := app.Close(); err != nil {
			return err
		}
		e.db.Publish()
		return nil
	})
	if err == nil {
		err = step("star.refresh", e.db.Refresh)
	}
	if err == nil && compact != nil {
		v := e.db.ViewByLevels(compact.levels)
		if v == nil {
			return epochs, fmt.Errorf("no view at levels %v", compact.names)
		}
		err = step("star.compact", func() error { return e.db.Compact(v) })
	}
	return epochs, err
}
