// Package labelprop implements the label propagation algorithm (LPA) of
// Raghavan et al. (the paper's ref [46]), the approach behind several of
// the parallel community detectors the paper compares against (Staudt &
// Meyerhenke [10], Soman & Narang [45], Ovelgönne [12]). It serves as the
// cross-algorithm baseline: faster per sweep than Louvain but without a
// modularity objective or hierarchy.
//
// Both implementations are synchronous. Parallel is distributed: it reuses
// the comm runtime and the 1D modulo decomposition of the Louvain engine, so
// the two algorithms are directly comparable on identical substrates.
// Shared is its shared-memory sibling. Runs are surfaced through the
// internal/algo registry as the "lpa" and "plp" engines.
package labelprop

import (
	"fmt"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/obs"
	"parlouvain/internal/wire"
)

// Options configures a label propagation run.
type Options struct {
	// MaxSweeps bounds the iterations; 0 means 64.
	MaxSweeps int
	// MinMoves stops the loop when fewer vertices change label in a
	// sweep (as a fraction of n); 0 means 0.001.
	MinMoves float64
	// Seed drives the randomized tie-breaking Raghavan et al. prescribe
	// (deterministic min-label ties let one label flood the graph). Any
	// value, including 0, is a valid seed.
	Seed uint64
	// Recorder, when non-nil, receives one "sweep" event per synchronous
	// sweep (moved count) from Parallel and Shared.
	Recorder *obs.Recorder
	// Metrics, when non-nil, instruments the comm layer (traffic counters
	// and exchange histograms) for Parallel runs.
	Metrics *obs.Registry
}

// tieRank hashes (vertex, label, seed) to break weight ties pseudo-randomly
// but deterministically and order-independently.
func tieRank(u, l uint32, seed uint64) uint64 {
	x := uint64(u)<<32 | uint64(l) + seed*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (o Options) withDefaults() Options {
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 64
	}
	if o.MinMoves <= 0 {
		o.MinMoves = 0.001
	}
	return o
}

// Parallel runs synchronous LPA as one rank of a distributed group: each
// sweep exchanges the owned vertices' labels along their edges (the same
// In_Table orientation the Louvain engine uses), then every vertex adopts
// the heaviest incident label. local holds this rank's destination-owned
// edges; n is the global vertex count. Every rank returns the same full
// label vector, plus the per-sweep global move counts.
func Parallel(c *comm.Comm, local graph.EdgeList, n int, opt Options) ([]graph.V, []int, error) {
	opt = opt.withDefaults()
	if opt.Metrics != nil {
		c.Instrument(opt.Metrics)
	}
	part := graph.Partition{Rank: c.Rank(), Size: c.Size()}
	nLoc := part.MaxLocalCount(n)

	// In-edge rows of owned vertices, as in the Louvain engine.
	adjOff, adjSrc, adjW, err := part.InRows(local, n)
	if err != nil {
		return nil, nil, fmt.Errorf("labelprop: %w", err)
	}

	labels := make([]graph.V, nLoc)
	for li := range labels {
		labels[li] = part.GlobalID(li)
	}

	// Per-sweep scratch: weight per (vertex, label) via a hash table
	// keyed like the Louvain Out_Table.
	weights := map[uint64]float64{}
	sendPlanes := wire.GetPlanes(c.Size())
	defer sendPlanes.Release()
	var r wire.Reader
	var movesPerSweep []int
	for sweep := 1; sweep <= opt.MaxSweeps; sweep++ {
		var tsSweep int64
		if opt.Recorder != nil {
			tsSweep = opt.Recorder.Now()
		}
		// Push each owned vertex's label along its in-edges to the
		// source owners: message (src, label(dst), w).
		sendPlanes.Reset()
		for li := 0; li < nLoc; li++ {
			l := uint32(labels[li])
			for p := adjOff[li]; p < adjOff[li+1]; p++ {
				sendPlanes.To(part.Owner(adjSrc[p])).PutTriple(wire.Triple{A: adjSrc[p], B: l, W: adjW[p]})
			}
		}
		in, err := c.ExchangePlanes(sendPlanes)
		if err != nil {
			return nil, nil, err
		}
		for k := range weights {
			delete(weights, k)
		}
		for _, plane := range in {
			r.Reset(plane)
			for r.More() {
				tr := r.Triple()
				if err := r.Err(); err != nil {
					return nil, nil, err
				}
				weights[hashfn.Pack32(tr.A, tr.B)] += tr.W
			}
		}
		wire.ReleasePlanes(in)
		// Adopt the heaviest label per owned vertex.
		bestW := make([]float64, nLoc)
		bestL := make([]graph.V, nLoc)
		for li := range bestL {
			bestL[li] = labels[li]
		}
		for key, w := range weights {
			u, l := hashfn.Unpack32(key)
			li := part.LocalIndex(u)
			if w > bestW[li] ||
				(w == bestW[li] && tieRank(u, l, opt.Seed) > tieRank(u, uint32(bestL[li]), opt.Seed)) {
				bestW[li] = w
				bestL[li] = graph.V(l)
			}
		}
		moves := uint64(0)
		for li := range labels {
			if bestW[li] > 0 && bestL[li] != labels[li] {
				labels[li] = bestL[li]
				moves++
			}
		}
		total, err := c.AllReduceUint64(moves, comm.OpSum)
		if err != nil {
			return nil, nil, err
		}
		movesPerSweep = append(movesPerSweep, int(total))
		if opt.Recorder != nil {
			opt.Recorder.Emit(obs.Event{
				Name: "sweep", Rank: c.Rank(), Iter: sweep,
				TS: tsSweep, Dur: opt.Recorder.Now() - tsSweep,
				Fields: map[string]float64{"moved": float64(total)},
			})
		}
		if float64(total) < opt.MinMoves*float64(n) {
			break
		}
	}

	// Gather the full label vector so every rank returns the same result.
	mine := make([]uint32, nLoc)
	for li, l := range labels {
		mine[li] = uint32(l)
	}
	all, err := c.AllGatherUint32(mine)
	if err != nil {
		return nil, nil, err
	}
	full := make([]graph.V, n)
	for r, xs := range all {
		for li, v := range xs {
			gid := li*c.Size() + r
			if gid < n {
				full[gid] = graph.V(v)
			}
		}
	}
	return full, movesPerSweep, nil
}
