package core

import (
	"fmt"
	"math"
	"time"

	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/metrics"
	"parlouvain/internal/movesched"
	"parlouvain/internal/obs"
)

// moveFn is one level's move phase, the only thing that varies between the
// whole-graph Louvain engines. It starts from comm (the community of each
// working-graph vertex, labels < wg.N) and tot (the summed degree of each
// community), improves both in place, and returns the moves made per sweep,
// the sweep count the level reports, the rows it scored (best calls) and why
// it stopped.
type moveFn func(wg *graph.Graph, opt Options, level int, comm []graph.V, tot []float64) (movesPerIter []int, iterations int, rows uint64, stop Stop)

// levelStep runs one level of a descent: its move phase, then whatever its
// family does to hand the next level a graph. It returns the level's record,
// the vertex count the next level would start with — the communities it
// aggregates, Leiden's refined ones included — and the family's own fields
// for the level event (nil for none). qPrev is the last level's Q, −Inf at
// level 0.
type levelStep func(level int, qPrev float64) (lv Level, next int, fields map[string]float64, err error)

// descend is the outer loop of Algorithms 1 and 2, the one level loop of
// every Louvain engine: run a level, record it, emit its "level" event (rank
// rank), and stop when the level merged nothing, gained less than MinGain, or
// MaxLevels ran — which res.Stop records. A canceled Options.Ctx is seen at
// the next level start and returned as an error wrapping ErrCanceled and the
// context's error. It fills res.Levels, Q, FirstLevel and Duration, timed
// from start.
func descend(res *Result, opt *Options, start time.Time, rank int, step levelStep) error {
	rec := opt.Recorder
	qPrev := math.Inf(-1)
	res.Stop = StopMaxLevels
	for level := 0; level < opt.MaxLevels; level++ {
		if err := opt.canceled(); err != nil {
			return fmt.Errorf("core: %w at level %d: %w", ErrCanceled, level, err)
		}
		ts := rec.Now()
		lv, next, fields, err := step(level, qPrev)
		if err != nil {
			return err
		}
		EmitLevel(rec, rank, level, ts, lv, fields)
		res.Levels = append(res.Levels, lv)
		res.Q = lv.Q
		if level == 0 {
			res.FirstLevel = time.Since(start)
		}
		if next == lv.Vertices {
			res.Stop = StopNoMerge
			break
		}
		if lv.Q-qPrev < opt.MinGain {
			res.Stop = StopMinGain
			break
		}
		qPrev = lv.Q
	}
	res.Duration = time.Since(start)
	return nil
}

// EmitLevel emits the "level" event of level `level` on rank, timed from ts:
// lv's outcome, plus the engine's own fields (nil for none; the map is
// written to). Every engine emits one per level it reports, as it ends.
func EmitLevel(rec *obs.Recorder, rank, level int, ts int64, lv Level, fields map[string]float64) {
	if rec == nil {
		return
	}
	if fields == nil {
		fields = make(map[string]float64, 5)
	}
	fields["q"] = lv.Q
	fields["vertices"] = float64(lv.Vertices)
	fields["communities"] = float64(lv.Communities)
	fields["inner_iterations"] = float64(lv.InnerIterations)
	fields["stop"] = float64(lv.Stop)
	rec.Emit(obs.Event{Name: "level", Rank: rank, Level: level, TS: ts, Dur: rec.Now() - ts, Fields: fields})
}

// hierarchy is the level step of Sequential, PLM, Leiden and LNS, handed to
// descend: run the move phase on the working graph, label the level, and
// condense it when the next level starts — so the last level never does.
// With refine set (Leiden) a level aggregates on the connected components of
// its move communities instead of the communities themselves, and the next
// level starts with every component in the community it was split from, so
// modularity carries over exactly and the move phase can still merge
// fragments back.
func hierarchy(g *graph.Graph, opt Options, move moveFn, refine bool) (*Result, error) {
	opt = opt.withDefaults()
	start := time.Now()
	if err := CheckWarm(opt.Warm, g.N); err != nil {
		return nil, err
	}
	res := &Result{
		NumVertices: g.N,
		NumEdges:    int64(g.NumEdges()),
	}
	// membership[orig] = vertex id in the current working graph.
	membership := make([]graph.V, g.N)
	comm := make([]graph.V, g.N)
	for i := range membership {
		membership[i] = graph.V(i)
		comm[i] = graph.V(i)
	}
	res.Membership = membership
	if g.N == 0 || g.M == 0 {
		res.Duration = time.Since(start)
		return res, nil
	}
	copy(comm, opt.Warm) // a nil Warm copies nothing: level 0 starts from singletons

	wg := g
	// labels is a level's answer per working-graph vertex, agg the partition
	// the next level's supervertices are built from.
	var labels, agg []graph.V
	numAgg := 0
	err := descend(res, &opt, start, 0, func(level int, _ float64) (Level, int, map[string]float64, error) {
		if level > 0 {
			// Each supervertex starts in the community its members came
			// from: singletons when agg is the move partition itself.
			comm = make([]graph.V, numAgg)
			for u, a := range agg {
				comm[a] = labels[u]
			}
			wg = Condense(wg, agg, numAgg)
		}
		tot := make([]float64, wg.N)
		for u, c := range comm {
			tot[c] += wg.Deg[u]
		}
		movesPerIter, iterations, rows, stop := move(wg, opt, level, comm, tot)
		res.RowsEvaluated += rows
		q := metrics.Modularity(wg, comm)

		var numComms int
		labels, numComms = compactLabels(comm)
		agg, numAgg = labels, numComms
		if refine {
			refined, splits := SplitDisconnected(wg, comm)
			res.LeidenSplits += splits
			agg, numAgg = compactLabels(refined) // already compact: this counts them
		}
		assign := make([]graph.V, g.N)
		for orig, v := range membership {
			assign[orig] = labels[v]
			membership[orig] = agg[v]
		}
		res.Membership = assign

		lv := Level{Q: q, Vertices: wg.N, Communities: numComms, InnerIterations: iterations, MovesPerIter: movesPerIter, Stop: stop}
		if opt.CollectLevels {
			lv.Membership = assign
		}
		return lv, numAgg, nil, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// compactLabels renumbers a labeling whose labels are all < len(comm) to
// 0..C-1 in first-seen order and returns it with C.
func compactLabels(comm []graph.V) ([]graph.V, int) {
	const unseen = ^graph.V(0)
	remap := make([]graph.V, len(comm))
	for i := range remap {
		remap[i] = unseen
	}
	out := make([]graph.V, len(comm))
	next := graph.V(0)
	for u, c := range comm {
		if remap[c] == unseen {
			remap[c] = next
			next++
		}
		out[u] = remap[c]
	}
	return out, int(next)
}

// Condense builds the next-level supergraph (Algorithm 1 lines 24-26) from
// compact per-vertex labels in [0, numComms): vertices are the communities,
// edge weights are summed, and intra-community weight becomes self-loops.
func Condense(wg *graph.Graph, labels []graph.V, numComms int) *graph.Graph {
	agg := make(map[uint64]float64, wg.N)
	selfW := make([]float64, numComms)
	for u := 0; u < wg.N; u++ {
		cu := labels[u]
		selfW[cu] += wg.SelfW[u]
		for i := wg.Off[u]; i < wg.Off[u+1]; i++ {
			v := wg.Nbr[i]
			if v < graph.V(u) {
				continue // count each undirected edge once
			}
			cv := labels[v]
			if cu == cv {
				selfW[cu] += wg.NbrW[i]
				continue
			}
			a, b := cu, cv
			if a > b {
				a, b = b, a
			}
			agg[hashfn.Pack32(a, b)] += wg.NbrW[i]
		}
	}
	el := make(graph.EdgeList, 0, len(agg)+numComms)
	for key, w := range agg {
		a, b := hashfn.Unpack32(key)
		el = append(el, graph.Edge{U: a, V: b, W: w})
	}
	for c, w := range selfW {
		if w != 0 {
			el = append(el, graph.Edge{U: graph.V(c), V: graph.V(c), W: w})
		}
	}
	return graph.Build(el, numComms)
}

// levelOrder builds one level's vertex visit order from Options.Order: the
// default ordering reproduces the historical behavior exactly (natural
// order, or the seeded per-level shuffle when Seed is set), the explicit
// orderings delegate to movesched.Permutation over the weighted degrees.
func levelOrder(wg *graph.Graph, opt Options, level int) []uint32 {
	seed := opt.Seed
	if seed != 0 {
		seed += uint64(level)
	} else if opt.Order == movesched.OrderShuffle {
		seed = uint64(level)
	}
	return movesched.Permutation(wg.N, opt.Order, wg.Deg, seed)
}

// gainScan is the scratch of the neighbor-community gain scan: dense sums
// indexed by community plus the list of communities that clears them. One per
// goroutine; sized for one level.
//
// A sum of zero means "not listed yet", and no scan of the list backs that
// up: every row entry writes its community at the list's end, and the end
// moves past it only when the sum it found was zero — a conditional increment
// the compiler emits without a branch, where "first sighting" would
// mispredict. A community whose weights cancel to exactly zero partway
// through a row is therefore listed again at its next entry, so whoever reads
// the list either folds idempotently over it (best) or consumes each sum as
// it goes (par-louvain's score, reconstructBuild), and dropRow's clear does
// not mind the repeat. A NaN sum is never zero and would be neither listed nor
// cleared, which is why the file readers, the rank-0 gather, loadLocal and
// labelprop.Parallel reject non-finite weights; a graph built in memory and
// handed to Sequential directly is not checked.
type gainScan struct {
	w2c     []float64
	touched []graph.V
	rows    uint64  // calls to best
	drift   float64 // Σ |new − old| over relocate's stores to tot, rounded up
	rivals  bool    // best computes rival (sweepLevel reads it; plm and lns do not)
}

// driftUp rounds drift up: 2⁻⁵⁰ of the running sum per store is more than the
// rounding of its adds, so drift never grows by less than the stores it counts.
const driftUp = 1 + 0x1p-50

func newGainScan(n int) *gainScan {
	return &gainScan{w2c: make([]float64, n), touched: make([]graph.V, 0, 64)}
}

// listAdd adds w to community c's sum and writes c at the list's end n; it
// returns the new end. Free of gainScan's fields so that a loop around it
// keeps both slices in registers.
func listAdd(w2c []float64, touched []graph.V, n int, c graph.V, w float64) int {
	sum := w2c[c]
	touched[n] = c
	if sum == 0 {
		n++
	}
	w2c[c] = sum + w
	return n
}

// gather sums a row — neighbours nbr, weights w — per neighbour community,
// label[v] being v's, into w2c and lists the communities in touched; it
// returns the list. The one gather of both engine families: the whole-graph
// scan reads a CSR row through comm, par-louvain an in-edge row through ghost.
func (s *gainScan) gather(nbr []graph.V, w []float64, label []graph.V) []graph.V {
	touched := resize(s.touched, len(nbr))
	w2c, n := s.w2c, 0
	for i, v := range nbr {
		n = listAdd(w2c, touched, n, label[v], w[i])
	}
	s.touched = touched[:n]
	return s.touched
}

// dropRow clears the sums of the listed communities.
func (s *gainScan) dropRow() {
	for _, c := range s.touched {
		s.w2c[c] = 0
	}
}

// best evaluates Equation 4 for u against every neighbor community and
// returns the community of maximum gain (ties to the lower id, staying
// preferred), that gain minus the gain of staying, u's edge weight into its
// own community c0 and into the winner, and rival: with s.rivals set, the
// largest gain over staying of any other community in the row (the returned
// gain whenever the winner is not c0), else −Inf. totC0 is c0's total
// without u — the caller either removed u from tot already or subtracts it
// from frozen state — and the other totals are read from tot.
func (s *gainScan) best(wg *graph.Graph, comm []graph.V, tot []float64, u graph.V, totC0 float64) (bestC graph.V, gain, wStay, wBest, rival float64) {
	s.rows++
	c0, ku := comm[u], wg.Deg[u]
	s.gather(wg.Nbr[wg.Off[u]:wg.Off[u+1]], wg.NbrW[wg.Off[u]:wg.Off[u+1]], comm)
	w2c := s.w2c

	// A maximum with ties to the lower id: the same answer in any order and
	// however often a community is listed. c0 has its own total. The rival's
	// maximum runs on orderBits keys, where max is a conditional move: a float
	// compare would be a branch mispredicted at every new maximum.
	stay := metrics.DeltaQ(w2c[c0], totC0, ku, wg.M)
	bestC, bestGain, other := c0, stay, int64(orderBits(math.Float64bits(math.Inf(-1))))
	for _, c := range s.touched {
		if c == c0 {
			continue
		}
		g := metrics.DeltaQ(w2c[c], tot[c], ku, wg.M)
		if s.rivals {
			other = max(other, int64(orderBits(math.Float64bits(g))))
		}
		if g > bestGain || (g == bestGain && c < bestC) {
			bestC, bestGain = c, g
		}
	}
	wStay, wBest = w2c[c0], w2c[bestC]
	s.dropRow()
	return bestC, bestGain - stay, wStay, wBest, math.Float64frombits(orderBits(uint64(other))) - stay
}

// orderBits flips a negative float64's magnitude bits: read as int64, the
// results order as the floats do (NaN aside). It is its own inverse.
func orderBits(b uint64) uint64 { return b ^ uint64(int64(b)>>63)>>1 }

// relocate is the serial move step shared by the sweep and the queue: take
// u out of its community (the isolated-vertex premise of Equation 4), and
// either move it to the best neighbor community or put it back. It reports
// whether u moved, and best's rival (NaN when u has no weight to score).
func (s *gainScan) relocate(wg *graph.Graph, comm []graph.V, tot []float64, u graph.V) (bool, float64) {
	ku := wg.Deg[u]
	if ku == 0 {
		return false, math.NaN()
	}
	c0 := comm[u]
	old0 := tot[c0]
	tot[c0] -= ku
	bestC, gain, _, _, rival := s.best(wg, comm, tot, u, tot[c0])
	if bestC != c0 && gain > minMoveGain {
		oldC := tot[bestC]
		comm[u] = bestC
		tot[bestC] += ku
		s.drift = (s.drift + math.Abs(tot[c0]-old0) + math.Abs(tot[bestC]-oldC)) * driftUp
		return true, rival
	}
	tot[c0] += ku
	s.drift = (s.drift + math.Abs(tot[c0]-old0)) * driftUp
	return false, rival
}
