package core

import "parlouvain/internal/graph"

// Leiden runs a Leiden-style variant of Algorithm 1 (Traag, Waltman & van
// Eck 2019): each level is a Louvain move phase followed by a refinement
// that splits every internally-disconnected community into its connected
// components, and aggregation happens on the refined partition rather than
// the move partition. The next level starts warm with the move communities
// (each refined supervertex begins in the community its fragment came
// from), so the move phase can still merge fragments back — or move them
// somewhere better.
//
// The reported per-level Q is the move-phase modularity, which is monotone
// non-decreasing across levels: aggregating on the refined partition and
// warm-starting with the move grouping reconstructs a partition of exactly
// the same modularity, and the move phase only applies positive-gain moves.
// The final Membership is the last level's move partition; refinement shapes
// the hierarchy (what may aggregate) without ever leaving a disconnected
// community inside a supervertex.
func Leiden(g *graph.Graph, opt Options) (*Result, error) {
	return hierarchy(g, opt, sweepLevel, true)
}
