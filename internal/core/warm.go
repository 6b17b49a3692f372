package core

// Warm-start seeding: adopting a prior assignment as the initial community
// state instead of singletons, so an incremental run converges in few
// iterations on a slightly-changed graph.

import (
	"fmt"

	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
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
// warm-start community, shipping the Σtot/member deltas as a move-log round
// ships its head (putMoveDeltas, applyMoveDeltas). Called once, right after
// the first levelInit: the full propagation that follows pulls every total
// and starts the subscriber lists over, so the round's registrations and its
// list of changed communities are dropped, and a warm move leaves no return
// rule behind.
func (s *engine) applyWarm() error {
	s.moveLog = s.moveLog[:0]
	for li := 0; li < s.nLoc; li++ {
		if !s.active[li] {
			continue
		}
		if target := s.opt.Warm[s.part.GlobalID(li)]; target != s.commOf[li] {
			s.left[li], s.commOf[li] = s.commOf[li], target
			s.moveLog = append(s.moveLog, li)
		}
	}
	p := s.outPlanes()
	s.putMoveDeltas(p)
	for _, li := range s.moveLog {
		s.left[li] = 0
	}
	s.moveLog = s.moveLog[:0]
	in, err := s.exchange(p)
	if err != nil {
		return err
	}
	defer wire.ReleasePlanes(in)
	var r wire.Reader
	for src, plane := range in {
		r.Reset(plane)
		if err := s.applyMoveDeltas(&r); err != nil {
			return err
		}
		if r.More() {
			return fmt.Errorf("core: rank %d got %d bytes after rank %d's warm-start deltas", s.part.Rank, r.Remaining(), src)
		}
	}
	for _, li := range s.changedList {
		s.changed[li] = false
	}
	s.changedList = s.changedList[:0]
	return nil
}
