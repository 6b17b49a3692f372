package core

import (
	"parlouvain/internal/par"
	"parlouvain/internal/wire"
)

// scatter is the engine's one all-to-all scaffold, shared by the three heavy
// phases (propagate, propagateDelta, reconstruct): a parallel build into
// per-thread writers, thread-order concatenation into the engine's pooled
// planes (single-threaded, the build writes those planes, keeping that path
// allocation- and copy-free), one blocking Exchange, then a parallel merge of
// the received round. The caller supplies two callbacks:
//
//   - build(t, lo, hi, w) encodes this rank's records for the work range
//     [lo,hi) into w — append a record with the Buffer codecs via w.To(dst).
//     Ranges are contiguous and assigned in thread order, so the
//     per-destination record order is identical to a serial li-ascending
//     build no matter the thread count.
//   - merge(t, r) is merge worker t's pass over one received plane; every
//     worker is handed every plane. reconstructMerge applies only the
//     records whose local index is in shard t (li % Threads == t).
//     mergeRecords, the merge of both propagations, has worker 0 apply
//     every record while the others return at once.
func (s *engine) scatter(nWork int, build func(t, lo, hi int, w *wire.Planes), merge func(t int, r *wire.Reader) error) error {
	s.chunked.Reset()
	return s.scatterArmed(nWork, build, merge)
}

// scatterArmed is scatter over per-thread writers the caller has reset,
// having perhaps written into thread 0's a head that then precedes the
// records of every plane (propagateDelta's Σtot deltas).
func (s *engine) scatterArmed(nWork int, build func(t, lo, hi int, w *wire.Planes), merge func(t int, r *wire.Reader) error) error {
	// The callbacks are pre-bound func fields (see newEngine), so selecting
	// the phase is two pointer stores — no per-round closure allocation.
	s.curBuild, s.curMerge = build, merge
	for t := range s.mergeErrs {
		s.mergeErrs[t] = nil
	}
	T := s.opt.Threads
	par.For(nWork, T, s.buildBody)
	in, err := s.exchange(s.chunked.Concat())
	if err != nil {
		return err
	}
	s.received = in
	par.For(T, T, s.mergeBody)
	s.received = nil
	wire.ReleasePlanes(in)
	for _, err := range s.mergeErrs {
		if err != nil {
			return err
		}
	}
	return nil
}
