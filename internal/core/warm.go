package core

// Warm-start seeding: adopting a prior assignment as the initial community
// state instead of singletons, so an incremental run converges in few
// iterations on a slightly-changed graph.

import (
	"fmt"

	"parlouvain/internal/graph"
)

// CheckWarm reports whether warm is a usable Options.Warm for a graph of n
// vertices: nil (cold start), or one label per vertex with every label
// inside the id space.
func CheckWarm(warm []graph.V, n int) error {
	if warm == nil {
		return nil
	}
	if len(warm) != n {
		return fmt.Errorf("core: warm-start assignment covers %d of %d vertices", len(warm), n)
	}
	for v, c := range warm {
		if int(c) >= n {
			return fmt.Errorf("core: warm-start label %d of vertex %d outside id space %d", c, v, n)
		}
	}
	return nil
}

// applyWarm moves every owned vertex from its singleton community into its
// warm-start community, shipping the same Σtot/member deltas as a regular
// update. Called once, right after the first levelInit.
func (s *engine) applyWarm() error {
	p := s.outPlanes()
	for li := 0; li < s.nLoc; li++ {
		if !s.active[li] {
			continue
		}
		target := s.opt.Warm[s.part.GlobalID(li)]
		oldC := s.commOf[li]
		if target == oldC {
			continue
		}
		s.commOf[li] = target
		bo := p.To(s.part.Owner(oldC))
		bo.PutU32(uint32(oldC))
		bo.PutF64(-s.k[li])
		bn := p.To(s.part.Owner(target))
		bn.PutU32(uint32(target))
		bn.PutF64(s.k[li])
	}
	in, err := s.exchange(p)
	if err != nil {
		return err
	}
	return s.applyTotDeltas(in)
}
