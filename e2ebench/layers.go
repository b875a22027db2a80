package main

import (
	"encoding/binary"
	"time"

	"mdxopt/internal/mem"
	"mdxopt/internal/rescache"
	"mdxopt/internal/sched"
	"mdxopt/internal/star"
	"mdxopt/internal/storage"
)

// layerSnapshot is the counters the layers expose, read before and
// after the traced phase.
type layerSnapshot struct {
	pool  storage.Stats
	mem   mem.Stats
	cache rescache.Stats
	sched sched.Metrics
	maint star.MaintainStats
}

func (e *tracedEngine) snapshotCounters() layerSnapshot {
	s := layerSnapshot{pool: e.db.Pool.Stats(), mem: e.broker.Stats(), cache: e.rc.Stats(), maint: e.db.MaintainStats()}
	if e.sch != nil {
		s.sched = e.sch.Metrics()
	}
	return s
}

type layerInputs struct {
	facade                       *phase
	facadeSummary, tracedSummary summary
	prof                         layerProfile
	acc                          traceCounters
	before, after                layerSnapshot
	planHitRatio                 float64
	viewRowsRatio                float64
}

// layerMetrics assembles the per-layer report of a traced run. Times are
// self times per request (per operation for maintenance steps); counts
// are per request unless named otherwise.
func layerMetrics(in layerInputs) map[string]metric {
	a := in.acc
	reqs := float64(max(a.requests, 1))
	perReq := func(x int64) float64 { return float64(x) / reqs }
	self := func(name string) time.Duration { return time.Duration(in.prof.self[name]) }
	perOp := func(name string) float64 {
		return ms(self(name)) / float64(max(in.prof.count[name], 1))
	}
	x := a.exec
	io := in.after.pool
	io0 := in.before.pool
	reads := (io.SeqReads - io0.SeqReads) + (io.RandReads - io0.RandReads)
	hits := io.Hits - io0.Hits
	runSelf := self("core.run") + self("sched.exec")
	cacheHits := in.after.cache.Hits - in.before.cache.Hits
	cacheMisses := in.after.cache.Misses - in.before.cache.Misses
	sub := in.after.sched.Submissions - in.before.sched.Submissions

	m := map[string]metric{
		"mdx.parse_us":                 {us(self("mdx.parse")) / reqs, "us"},
		"mdx.translate_us":             {us(self("mdx.translate")) / reqs, "us"},
		"mdx.queries_per_req":          {perReq(a.queries), "count"},
		"core.optimize_us":             {us(self("core.optimize")) / reqs, "us"},
		"core.classes_per_req":         {perReq(a.classes), "count"},
		"plan.est_over_measured":       {ratio(a.estMicros, a.simMicros), "ratio"},
		"mdxopt.plan_cache_hit_ratio":  {in.planHitRatio, "ratio"},
		"mdxopt.format_us":             {us(self("format")) / reqs, "us"},
		"core.run_ms":                  {ms(runSelf) / reqs, "ms"},
		"dag.nodes_per_req":            {perReq(a.dagNodes), "count"},
		"dag.worker_peak":              {float64(a.workerPeak), "count"},
		"exec.tuples_scanned":          {perReq(x.TuplesScanned), "count"},
		"exec.tuples_fetched":          {perReq(x.TuplesFetched), "count"},
		"exec.tuples_agg":              {perReq(x.TuplesAgg), "count"},
		"exec.tuple_probes":            {perReq(x.TupleProbes), "count"},
		"exec.hash_build_rows":         {perReq(x.HashBuildRows), "count"},
		"exec.bit_tests":               {perReq(x.BitTests), "count"},
		"exec.ns_per_tuple":            {ratio(float64(runSelf), float64(x.TuplesScanned+x.TuplesFetched)), "ns"},
		"exec.packed_fold_frac":        {ratio(float64(x.PackedFolds), float64(x.TuplesAgg)), "ratio"},
		"exec.spill_mb":                {float64(x.SpillBytes) / (1 << 20), "MiB"},
		"bitmap.words_per_req":         {perReq(x.BitmapWords), "count"},
		"storage.reads_per_req":        {perReq(reads), "count"},
		"storage.rand_read_frac":       {ratio(float64(io.RandReads-io0.RandReads), float64(reads)), "ratio"},
		"storage.hit_ratio":            {ratio(float64(hits), float64(hits+reads)), "ratio"},
		"storage.evictions_per_req":    {perReq(io.Evictions - io0.Evictions), "count"},
		"storage.writes":               {float64(io.Writes - io0.Writes), "count"},
		"mem.peak_mb":                  {float64(in.after.mem.Peak) / (1 << 20), "MiB"},
		"mem.denied":                   {float64(in.after.mem.Denied - in.before.mem.Denied), "count"},
		"mem.admit_wait_ms":            {ms(in.after.mem.DeferredFor-in.before.mem.DeferredFor) / reqs, "ms"},
		"mem.admit_us":                 {us(self("mem.admit")) / reqs, "us"},
		"rescache.hit_ratio":           {ratio(float64(cacheHits), float64(cacheHits+cacheMisses)), "ratio"},
		"rescache.evictions":           {float64(in.after.cache.Evictions - in.before.cache.Evictions), "count"},
		"rescache.rollup_rows_per_hit": {ratio(float64(x.CacheRows), float64(cacheHits)), "count"},
		"rescache.put_us":              {us(self("rescache.put")) / reqs, "us"},
		"sched.batch_size":             {perReq(a.batchSize), "count"},
		"sched.coalesced_frac":         {ratio(float64(in.after.sched.Coalesced-in.before.sched.Coalesced), float64(sub)), "ratio"},
		"sched.queue_wait_ms":          {ms(self("sched.submit")) / reqs, "ms"},
		"sched.rejected":               {float64(in.after.sched.Rejected - in.before.sched.Rejected), "count"},
		"star.pin_us":                  {us(self("star.pin")) / reqs, "us"},
		"star.load_ms":                 {perOp("star.load"), "ms"},
		"star.refresh_ms":              {perOp("star.refresh"), "ms"},
		"star.compact_ms":              {perOp("star.compact"), "ms"},
		"star.publish_us":              {meanNs(a.publishNs) / 1e3, "us"},
		"star.retired_files_max":       {float64(a.retiredMax), "count"},
		"star.reclaimed_files":         {float64(in.after.maint.ReclaimedFiles - in.before.maint.ReclaimedFiles), "count"},
		"star.view_rows_ratio":         {in.viewRowsRatio, "ratio"},
		"harness.other_frac":           {ratio(float64(in.prof.rootOther), float64(in.prof.rootWall)), "ratio"},
		"harness.trace_overhead_frac":  {ratio(in.tracedSummary.p50, in.facadeSummary.p50) - 1, "ratio"},
		"harness.gen_late_p99_ms":      {in.facadeSummary.genLateP99, "ms"},
		"harness.backlog_end":          {float64(in.facade.backlogEnd), "count"},
	}
	// Maintenance as the facade ran it (untraced), churn only.
	maintP50, maintP90, writeAmp := 0.0, 0.0, 0.0
	if f := in.facade; len(f.maintLat) > 0 {
		lat := append([]float64(nil), f.maintLat...)
		maintP50, maintP90 = percentile(lat, 50), percentile(lat, 90)
		writeAmp = ratio(float64(f.wchar), float64(f.rows*factBytes))
	}
	m["star.maint_p50_ms"] = metric{maintP50, "ms"}
	m["star.maint_p90_ms"] = metric{maintP90, "ms"}
	m["storage.write_amp"] = metric{writeAmp, "ratio"}
	return m
}

// factBytes is one fact row's payload: four int32 keys and a float64.
const factBytes = 24

func meanNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t int64
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}

// viewRowsRatio is the stored rows of every materialized view over the
// distinct groups they hold; Refresh appends duplicate group rows, so it
// exceeds 1 until Compact merges them.
func viewRowsRatio(db *star.Database) (float64, error) {
	views := db.Views[1:]
	groups := make([]map[[16]byte]struct{}, len(views))
	for i := range groups {
		groups[i] = make(map[[16]byte]struct{})
	}
	err := db.Base().Heap.Scan(func(_ int64, keys []int32, _ []float64) error {
		for i, v := range views {
			var k [16]byte
			for d, l := range v.Levels {
				binary.LittleEndian.PutUint32(k[4*d:], uint32(db.Schema.Dims[d].RollUp(keys[d], 0, l)))
			}
			groups[i][k] = struct{}{}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var rows, distinct int64
	for i, v := range views {
		rows += v.Rows()
		distinct += int64(len(groups[i]))
	}
	return ratio(float64(rows), float64(distinct)), nil
}
