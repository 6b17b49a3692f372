// Package labelprop implements the label propagation algorithm (LPA) of
// Raghavan et al. (the paper's ref [46]), behind the parallel detectors the
// paper compares against (refs [10], [12], [45]): the cross-algorithm
// baseline, faster per sweep than Louvain but without a modularity objective.
// Both engines are synchronous and adopt with one kernel, so they return the
// same labels: Parallel, on the Louvain engine's decomposition and state
// propagation, and Shared, its shared-memory sibling ("lpa" and "plp").
package labelprop

import (
	"fmt"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/movesched"
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
	// (min-label ties let one label flood the graph); 0 is a valid seed.
	Seed uint64
	// Recorder, when non-nil, receives one "sweep" event per synchronous
	// sweep (moved count) from Parallel and Shared.
	Recorder *obs.Recorder
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

// startSweep returns the function that records the "sweep" event of a sweep
// starting now; with no recorder it does nothing.
func (o Options) startSweep(rank, sweep int) func(moved int) {
	if o.Recorder == nil {
		return func(int) {}
	}
	ts := o.Recorder.Now()
	return func(moved int) {
		o.Recorder.Emit(obs.Event{Name: "sweep", Rank: rank, Iter: sweep, TS: ts, Dur: o.Recorder.Now() - ts, Fields: map[string]float64{"moved": float64(moved)}})
	}
}

// adopter is both engines' adoption kernel: dense weights over the label
// space, and the labels the current row touched, which clear them.
type adopter struct {
	weight  []float64
	touched []graph.V
	seed    uint64
}

func (a *adopter) add(l graph.V, w float64) {
	if a.weight[l] == 0 {
		a.touched = append(a.touched, l)
	}
	a.weight[l] += w
}

// adopt returns the label vertex u takes from its row: the heaviest of
// label[src[i]], weighted w[i], and cur, u's label, weighted selfW (its
// self-loop), a weight tie going to the larger seeded tieRank. Only its own
// weight defends cur: u keeps it when it wins or no label weighs above 0.
func (a *adopter) adopt(u, cur graph.V, src []graph.V, w []float64, label []graph.V, selfW float64) graph.V {
	for i, v := range src {
		a.add(label[v], w[i])
	}
	if selfW != 0 {
		a.add(cur, selfW)
	}
	best, bestW := cur, 0.0
	for _, l := range a.touched {
		if x := a.weight[l]; x > bestW || x == bestW && tieRank(u, l, a.seed) > tieRank(u, best, a.seed) {
			best, bestW = l, x
		}
		a.weight[l] = 0
	}
	a.touched = a.touched[:0]
	if bestW > 0 {
		return best
	}
	return cur
}

// Parallel runs synchronous LPA as one rank of a group, on the Louvain
// engine's state propagation (Algorithm 3): the rank keeps a ghost label for
// every source of its in-rows, and a sweep is one round in which each owned
// vertex whose label changed tells (vertex, label) once to every rank that
// owns a neighbor of it, its own included; every plane opens with the
// sender's move count. The owned rows adopt with Shared's kernel and pruning
// rule, from ghosts that hold the previous sweep's labels, so the labels are
// Shared's at every rank count. local holds this rank's destination-owned
// edges (graph.SplitEdges form), which must be symmetric across the group: a
// mirror sum rides the first round, so every rank refuses an asymmetric input
// together, as the Louvain engine's levelInit does. Every rank returns the
// same full label vector, plus the per-sweep global move counts.
func Parallel(c *comm.Comm, local graph.EdgeList, n int, opt Options) ([]graph.V, []int, error) {
	opt = opt.withDefaults()
	part := graph.Partition{Rank: c.Rank(), Size: c.Size()}
	nLoc := part.MaxLocalCount(n)
	off, src, w, err := part.InRows(local, n)
	if err != nil {
		return nil, nil, fmt.Errorf("labelprop: %w", err)
	}

	// The rows' transpose (the rows that read v are revRow[revOff[v]:
	// revOff[v+1]]; revOff[v] runs to the end of v's list as it fills and is
	// shifted back after), the ranks each owned vertex tells, and the mirror
	// sum: (v→u) adds the hash of {v, u} if v < u and takes it off if v > u.
	revOff := make([]int64, n+1)
	for _, v := range src {
		revOff[v+1]++
	}
	for v := 0; v < n; v++ {
		revOff[v+1] += revOff[v]
	}
	revRow := make([]uint32, len(src))
	nbrOff := make([]int64, nLoc+1)
	var nbrRank []int32
	seen := make([]int, c.Size())
	var mirror uint64
	for li := 0; li < nLoc; li++ {
		u := part.GlobalID(li)
		for _, v := range src[off[li]:off[li+1]] {
			revRow[revOff[v]] = uint32(li)
			revOff[v]++
			if r := part.Owner(v); seen[r] != li+1 {
				seen[r] = li + 1
				nbrRank = append(nbrRank, int32(r))
			}
			if v < u {
				mirror += tieRank(v, u, 0)
			} else if v > u {
				mirror -= tieRank(u, v, 0)
			}
		}
		nbrOff[li+1] = int64(len(nbrRank))
	}
	copy(revOff[1:], revOff[:n])
	revOff[0] = 0

	labels, ghost := make([]graph.V, nLoc), make([]graph.V, n)
	for v := range ghost {
		ghost[v] = graph.V(v)
	}
	for li := range labels {
		labels[li] = part.GlobalID(li)
	}
	kernel := adopter{weight: make([]float64, n), seed: opt.Seed}
	active := movesched.NewActiveSet(nLoc, true)
	var movers []int
	planes := wire.GetPlanes(c.Size())
	defer planes.Release()
	var r wire.Reader
	var movesPerSweep []int
	for sweep := 1; sweep <= opt.MaxSweeps; sweep++ {
		done := opt.startSweep(part.Rank, sweep)
		movers = movers[:0]
		for li, cur := range labels {
			lo, hi := off[li], off[li+1]
			if !active.Active(uint32(li)) || lo == hi {
				continue
			}
			// Writing labels is safe: the rows read ghosts only.
			if l := kernel.adopt(part.GlobalID(li), cur, src[lo:hi], w[lo:hi], ghost, 0); l != cur {
				labels[li] = l
				movers = append(movers, li)
			}
		}
		planes.Reset()
		for dst := range c.Size() {
			if sweep == 1 {
				planes.To(dst).PutU64(mirror)
			}
			planes.To(dst).PutUvarint(uint64(len(movers)))
		}
		for _, li := range movers {
			active.MarkNext(uint32(li))
			for _, dst := range nbrRank[nbrOff[li]:nbrOff[li+1]] {
				planes.To(int(dst)).PutPair(part.GlobalID(li), labels[li])
			}
		}
		in, err := c.ExchangePlanes(planes)
		if err != nil {
			return nil, nil, err
		}
		var total, groupMirror uint64
		for from, plane := range in {
			r.Reset(plane)
			if sweep == 1 {
				groupMirror += r.U64()
			}
			total += r.Uvarint()
			for r.More() {
				v, l := r.Pair()
				if int(v) >= n || int(l) >= n {
					return nil, nil, fmt.Errorf("labelprop: rank %d got label %d of vertex %d from rank %d, outside vertex space %d", part.Rank, l, v, from, n)
				}
				ghost[v] = l
				for _, row := range revRow[revOff[v]:revOff[v+1]] {
					active.MarkNext(row)
				}
			}
			if err := r.Err(); err != nil {
				return nil, nil, fmt.Errorf("labelprop: rank %d: plane from rank %d: %w", part.Rank, from, err)
			}
		}
		wire.ReleasePlanes(in)
		if groupMirror != 0 {
			return nil, nil, fmt.Errorf("labelprop: rank %d: the input is not symmetric: some edge (u→v) lacks its mirror (v→u), as graph.SplitEdges gives", part.Rank)
		}
		movesPerSweep = append(movesPerSweep, int(total))
		done(int(total))
		if total == 0 || float64(total) < opt.MinMoves*float64(n) {
			break
		}
		active.Flip()
	}

	// Gather the full label vector so every rank returns the same result.
	all, err := c.AllGatherUint32(labels)
	if err != nil {
		return nil, nil, err
	}
	full := make([]graph.V, n)
	for r, xs := range all {
		for li, v := range xs {
			if gid := li*c.Size() + r; gid < n {
				full[gid] = v
			}
		}
	}
	return full, movesPerSweep, nil
}
