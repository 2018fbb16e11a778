package cluster

import (
	"errors"
	"fmt"
	"sync"

	"github.com/eda-go/adifo/internal/service"
)

// progress sums each shard's latest snapshot into the cluster job's
// advisory progress. A shard contributes its newest reported block, or
// its terminal counters once done. Reruns and speculative duplicates
// replay bit-identical per-block stats (grading is deterministic), so
// replayed blocks below a shard's frontier are ignored and the sums
// never double-count. Every event that moves a shard forward is
// published under mu, so published events stay in order and Block,
// Detected and VectorsUsed never decrease.
type progress struct {
	jobID   string
	publish func(service.ProgressEvent)

	mu     sync.Mutex
	shards []shardSnap
	block  int // furthest block any shard has reported; -1 before any
	blocks int
}

type shardSnap struct {
	next                          int // frontier: blocks reported so far
	done                          bool
	vectorsUsed, detected, active int
}

func newProgress(jobID string, count int, publish func(service.ProgressEvent)) *progress {
	return &progress{jobID: jobID, publish: publish, shards: make([]shardSnap, count), block: -1}
}

// update records one progress event of shard i.
func (p *progress) update(i int, ev service.ProgressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sh := &p.shards[i]
	if sh.done || ev.Block < sh.next {
		return // a replay of blocks this shard already reported
	}
	*sh = shardSnap{next: ev.Block + 1, vectorsUsed: ev.VectorsUsed, detected: ev.Detected, active: ev.Active}
	p.block = max(p.block, ev.Block)
	p.blocks = max(p.blocks, ev.Blocks)
	p.publishLocked()
}

// markDone records shard i's terminal counters.
func (p *progress) markDone(i int, st service.JobStatus) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shards[i] = shardSnap{done: true, vectorsUsed: st.VectorsUsed, detected: st.Detected, active: st.Active}
	p.publishLocked()
}

func (p *progress) publishLocked() {
	if p.block < 0 {
		return // no block reported yet: nothing to place the sums at
	}
	ev := service.ProgressEvent{JobID: p.jobID, State: service.StateRunning, Block: p.block, Blocks: p.blocks}
	for _, sh := range p.shards {
		ev.Detected += sh.detected
		ev.Active += sh.active
		ev.VectorsUsed = max(ev.VectorsUsed, sh.vectorsUsed)
	}
	p.publish(ev)
}

// MergeResults merges the per-shard results of one cluster job into
// the result an unsharded single-node run of the same spec would have
// produced, bit for bit:
//
//   - per-fault counters (DetCount, FirstDet, detection sets) are
//     shard-local facts and concatenate in fault-index order;
//   - per-vector ndet counters sum elementwise (a shard that stopped
//     early contributes zero beyond its stop — all its faults were
//     already dropped there, exactly as in the single run);
//   - vectors-used is the maximum over shards: active sets only
//     shrink, so the single run's global active list empties exactly
//     when the last shard's does.
//
// The shards must be a complete partition: one result per shard index
// 0..count-1, all with the same circuit fingerprint, mode and vector
// set. Violations return an error rather than a silently wrong merge.
func MergeResults(id string, shards []*service.JobResult) (*service.JobResult, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: no shard results to merge")
	}
	byIndex := make([]*service.JobResult, len(shards))
	for _, r := range shards {
		if r == nil {
			return nil, errors.New("cluster: missing shard result")
		}
		if r.FaultShard == nil {
			return nil, fmt.Errorf("cluster: result %s carries no fault_shard", r.ID)
		}
		if r.FaultShard.Count != len(shards) {
			return nil, fmt.Errorf("cluster: result %s is shard %d of %d, merging %d",
				r.ID, r.FaultShard.Index, r.FaultShard.Count, len(shards))
		}
		i := r.FaultShard.Index
		if i < 0 || i >= len(shards) || byIndex[i] != nil {
			return nil, fmt.Errorf("cluster: duplicate or out-of-range shard index %d", i)
		}
		byIndex[i] = r
	}

	first := byIndex[0]
	out := &service.JobResult{
		ID:          id,
		Kind:        service.KindGrade,
		Circuit:     first.Circuit,
		Fingerprint: first.Fingerprint,
		Mode:        first.Mode,
		TotalFaults: first.TotalFaults,
		Vectors:     first.Vectors,
	}
	nextF := 0
	for i, r := range byIndex {
		if r.Fingerprint != out.Fingerprint || r.Circuit != out.Circuit {
			return nil, fmt.Errorf("cluster: shard %d graded %s/%s, shard 0 graded %s/%s",
				i, r.Circuit, r.Fingerprint, out.Circuit, out.Fingerprint)
		}
		if r.Mode != out.Mode || r.Vectors != out.Vectors || r.TotalFaults != out.TotalFaults {
			return nil, fmt.Errorf("cluster: shard %d (mode %s, %d vectors, %d total faults) does not match shard 0 (mode %s, %d vectors, %d total faults)",
				i, r.Mode, r.Vectors, r.TotalFaults, out.Mode, out.Vectors, out.TotalFaults)
		}
		lo, hi := service.ShardRange(r.TotalFaults, i, len(byIndex))
		if r.Faults != hi-lo || len(r.PerFault) != hi-lo {
			return nil, fmt.Errorf("cluster: shard %d has %d faults, want range [%d, %d)", i, r.Faults, lo, hi)
		}
		for k, fr := range r.PerFault {
			if fr.F != nextF {
				return nil, fmt.Errorf("cluster: shard %d fault %d has global index %d, want %d", i, k, fr.F, nextF)
			}
			nextF++
		}
		out.Faults += r.Faults
		out.Detected += r.Detected
		if r.VectorsUsed > out.VectorsUsed {
			out.VectorsUsed = r.VectorsUsed
		}
		if len(r.Ndet) > len(out.Ndet) {
			out.Ndet = append(out.Ndet, make([]int, len(r.Ndet)-len(out.Ndet))...)
		}
		for u, n := range r.Ndet {
			out.Ndet[u] += n
		}
		out.PerFault = append(out.PerFault, r.PerFault...)
	}
	if out.Faults != out.TotalFaults {
		return nil, fmt.Errorf("cluster: shards cover %d of %d faults", out.Faults, out.TotalFaults)
	}
	if out.Faults > 0 {
		out.Coverage = float64(out.Detected) / float64(out.Faults)
	}
	return out, nil
}
