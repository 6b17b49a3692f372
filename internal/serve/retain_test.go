package serve

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkRetainedPerJob runs b.N par-louvain jobs of serve-mix's lfr2k or
// lfr8k class through a Store, one after another, and reports the heap the finished jobs still
// hold after GC — recorder, registry, result and bookkeeping — per job, the
// cost of each of the up to maxFinished jobs a Store keeps.
func BenchmarkRetainedPerJob(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("lfr%dk", n/1000), func(b *testing.B) {
			s := NewStore(Config{Workers: 1})
			defer s.Shutdown(context.Background())
			heap := func() uint64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			before := heap()
			for i := 0; i < b.N; i++ {
				j, err := s.Submit(Spec{Gen: fmt.Sprintf("lfr:n=%d,mu=0.3,seed=%d", n, i+1), Algo: "par-louvain", Ranks: 2})
				if err != nil {
					b.Fatal(err)
				}
				<-j.Done()
				if st := j.State(); st != StateDone {
					b.Fatalf("job %s ended %s", j.ID(), st)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(int64(heap())-int64(before))/1024/float64(b.N), "KiB/job")
		})
	}
}
