package algo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
)

// checkTol absorbs float summation-order differences between an engine's
// incremental modularity and the recomputed reference.
const checkTol = 1e-6

// finish completes a rank-level detection uniformly for every engine:
// group-total traffic accounting, then — under CheckInvariants — the
// unified post-conditions every community-detection result must satisfy:
//
//  1. shape: the assignment covers every vertex with labels in [0, n);
//  2. agreement: every rank's assignment vector hashes identically;
//  3. consistency: the reported Q matches a distributed recomputation of
//     Newman modularity from the local edge partitions;
//  4. monotonicity: engines whose Info guarantees it produce a
//     non-decreasing per-level Q (parallel Louvain is exempt under Naive).
//
// Violations wrap core.ErrInvariant, the same sentinel the parallel
// engine's per-level checker uses. wholeGraph.direct, which has no group to
// account or agree with, applies (1), (3) and (4) to the graph it built.
func finish(g Graph, opt Options, info Info, res *Result) (*Result, error) {
	c := g.Comm
	if err := groupTraffic(c, res); err != nil {
		return nil, err
	}
	if !opt.CheckInvariants {
		return res, nil
	}

	if err := checkShape(info, g.N, res); err != nil {
		return nil, err
	}

	// (2) Cross-rank agreement.
	h := fnv.New64a()
	var b [4]byte
	for _, label := range res.Assignment {
		binary.LittleEndian.PutUint32(b[:], label)
		h.Write(b[:])
	}
	digest := h.Sum64()
	lo, err := c.AllReduceUint64(digest, comm.OpMin)
	if err != nil {
		return nil, err
	}
	hi, err := c.AllReduceUint64(digest, comm.OpMax)
	if err != nil {
		return nil, err
	}
	if lo != hi {
		return nil, fmt.Errorf("%w: %s rank %d: assignments disagree across ranks (hash %016x, group range [%016x, %016x])",
			core.ErrInvariant, info.Name, c.Rank(), digest, lo, hi)
	}

	// (3) Modularity consistency.
	q, err := distModularity(c, g.Local, g.N, res.Assignment)
	if err != nil {
		return nil, err
	}
	if err := checkQ(info, opt, res, q); err != nil {
		return nil, err
	}
	return res, nil
}

// checkShape is post-condition (1).
func checkShape(info Info, n int, res *Result) error {
	if len(res.Assignment) != n {
		return fmt.Errorf("%w: %s: assignment covers %d of %d vertices",
			core.ErrInvariant, info.Name, len(res.Assignment), n)
	}
	for v, label := range res.Assignment {
		if int(label) >= n {
			return fmt.Errorf("%w: %s: vertex %d labeled %d outside id space %d",
				core.ErrInvariant, info.Name, v, label, n)
		}
	}
	return nil
}

// checkQ is post-conditions (3) and (4), given q recomputed from the input.
func checkQ(info Info, opt Options, res *Result, q float64) error {
	if math.Abs(q-res.Q) > checkTol*math.Max(1, math.Abs(q)) {
		return fmt.Errorf("%w: %s: reported Q %.12g, recomputed %.12g",
			core.ErrInvariant, info.Name, res.Q, q)
	}
	if info.MonotoneQ && !opt.Naive {
		for i := 1; i < len(res.Levels); i++ {
			if res.Levels[i].Q < res.Levels[i-1].Q-checkTol {
				return fmt.Errorf("%w: %s: level %d modularity decreased: %.12g -> %.12g",
					core.ErrInvariant, info.Name, i, res.Levels[i-1].Q, res.Levels[i].Q)
			}
		}
	}
	return nil
}

// distModularity recomputes Newman modularity (Equation 3) of a full
// assignment from the rank's destination-owned edge partition in two rounds.
// Each undirected non-self edge appears in the group once per orientation, so
// local single-orientation sums reduce to the doubled global quantities, and
// degrees of owned vertices are complete locally because every in-edge of an
// owned destination lives on its owner. The owned vertices' degrees are
// summed per label and each (label, partial Σtot) goes to the label's owner
// in one exchange; the owner folds them into its labels' Σtot, and one
// reduction of (2m, Σin, Σ Σtot²) finishes the sum.
func distModularity(c *comm.Comm, local graph.EdgeList, n int, assign []graph.V) (float64, error) {
	part := graph.Partition{Rank: c.Rank(), Size: c.Size()}
	deg := make([]float64, part.MaxLocalCount(n))
	var m2, in2 float64 // 2m and double-counted intra-community weight
	for _, e := range local {
		if !part.Owns(e.V) {
			return 0, fmt.Errorf("algo: rank %d holds edge with unowned dst %d", part.Rank, e.V)
		}
		if e.U == e.V {
			m2 += 2 * e.W
			in2 += 2 * e.W
			deg[part.LocalIndex(e.V)] += 2 * e.W
			continue
		}
		m2 += e.W
		if assign[e.U] == assign[e.V] {
			in2 += e.W
		}
		deg[part.LocalIndex(e.V)] += e.W
	}
	tot := make([]float64, n) // this rank's partial Σtot per label
	listed := make([]bool, n)
	var labels []graph.V
	for li, k := range deg {
		if v := part.GlobalID(li); int(v) < n && k != 0 {
			l := assign[v]
			if int(l) >= n {
				return 0, fmt.Errorf("algo: rank %d: vertex %d labeled %d outside id space %d", part.Rank, v, l, n)
			}
			if !listed[l] {
				listed[l] = true
				labels = append(labels, l)
			}
			tot[l] += k
		}
	}
	planes := wire.GetPlanes(c.Size())
	defer planes.Release()
	planes.Reset()
	for _, l := range labels {
		to := planes.To(part.Owner(l))
		to.PutU32(l)
		to.PutF64(tot[l])
	}
	in, err := c.ExchangePlanes(planes)
	if err != nil {
		return 0, err
	}
	own := make([]float64, part.MaxLocalCount(n)) // Σtot of the owned labels
	var r wire.Reader
	for _, plane := range in {
		r.Reset(plane)
		for err == nil && r.More() {
			l, t := r.U32(), r.F64()
			switch {
			case r.Err() != nil:
				err = r.Err()
			case !part.Owns(l):
				err = fmt.Errorf("algo: rank %d: Σtot of label %d, owned by rank %d", part.Rank, l, part.Owner(l))
			default:
				own[part.LocalIndex(l)] += t
			}
		}
	}
	wire.ReleasePlanes(in)
	if err != nil {
		return 0, err
	}
	sums := []float64{m2, in2, 0}
	for _, t := range own {
		sums[2] += t * t
	}
	if err := c.AllReduceFloat64Slice(sums); err != nil {
		return 0, err
	}
	if sums[0] == 0 {
		return 0, nil
	}
	return sums[1]/sums[0] - sums[2]/(sums[0]*sums[0]), nil
}
