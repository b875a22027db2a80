package main

import (
	"context"
	"fmt"

	"mdxopt"
)

// facadeEngine drives the public mdxopt API only. It is what the
// untraced runs measure.
type facadeEngine struct {
	db *mdxopt.DB
	w  *workloadSpec
}

func openFacade(dir string, w *workloadSpec, cfg *runConfig) (*facadeEngine, error) {
	db, err := mdxopt.OpenWith(dir, mdxopt.OpenOptions{
		PoolFrames:        w.poolFrames,
		MemoryBudget:      w.memBudget,
		ResultCacheBudget: w.cacheBudget,
		SpillDir:          cfg.spillDir,
	})
	if err != nil {
		return nil, err
	}
	if w.batching {
		db.EnableBatching(mdxopt.BatchConfig{Window: batchWindow, MaxQueue: admissionQueue, Workers: 1})
	}
	return &facadeEngine{db: db, w: w}, nil
}

func (e *facadeEngine) query(_ int64, text string) (digest, uint64, error) {
	ans, err := e.db.QueryContext(context.Background(), text, mdxopt.Options{Workers: 1, Batching: e.w.batching})
	if err != nil {
		return 0, 0, err
	}
	return answerDigest(ans), ans.Stats.SnapshotEpoch, nil
}

// maintain runs one maintenance cycle: append the batch through a
// Loader, publish it with Close, Refresh, and Compact the given view
// (nil = no compaction). It returns the epochs the cycle published.
func (e *facadeEngine) maintain(_ int64, b factBatch, compact *viewRef) ([]uint64, error) {
	var epochs []uint64
	l := e.db.Load()
	codes := make([]int32, 4)
	for r, k := range b.keys {
		copy(codes, k[:])
		if err := l.AddCodes(codes, b.measures[r]); err != nil {
			l.Close()
			return epochs, fmt.Errorf("load: %w", err)
		}
	}
	if err := l.Close(); err != nil {
		return epochs, fmt.Errorf("loader close: %w", err)
	}
	epochs = append(epochs, e.db.MaintenanceStats().SnapshotEpoch)
	if err := e.db.Refresh(); err != nil {
		return epochs, fmt.Errorf("refresh: %w", err)
	}
	epochs = append(epochs, e.db.MaintenanceStats().SnapshotEpoch)
	if compact != nil {
		if err := e.db.Compact(compact.names...); err != nil {
			return epochs, fmt.Errorf("compact %v: %w", compact.names, err)
		}
		epochs = append(epochs, e.db.MaintenanceStats().SnapshotEpoch)
	}
	return epochs, nil
}

func (e *facadeEngine) epoch() uint64 { return e.db.MaintenanceStats().SnapshotEpoch }

func (e *facadeEngine) close() error { return e.db.Close() }

// planCacheHitRatio is the share of plan lookups the facade answered
// from its plan caches: per request unbatched, per batch batched.
func (e *facadeEngine) planCacheHitRatio(requests int64) float64 {
	lookups := requests
	if e.w.batching {
		lookups = e.db.BatchStats().Batches
	}
	return ratio(float64(e.db.PlanCacheHits()), float64(lookups))
}

// answerDigest fingerprints a facade answer; see digest.
func answerDigest(ans *mdxopt.Answer) digest {
	qs := make([]queryDigest, len(ans.Queries))
	for i, q := range ans.Queries {
		qs[i] = queryDigest{groupBy: q.GroupBy, agg: q.Aggregate}
		for _, r := range q.Rows {
			qs[i].addRow(r.Members, r.Value)
		}
	}
	return combine(qs)
}
