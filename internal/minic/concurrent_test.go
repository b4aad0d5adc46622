package minic

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestConcurrentCompile compiles several workload programs on parallel
// goroutines, each several times, as a daemon serving more than one
// program or an embedder compiling concurrently does. The canonical
// pointer and array types are shared by every compilation, so under
// -race this checks their interning is synchronized; every concurrent
// compilation must also produce the same TI table as a serial one.
func TestConcurrentCompile(t *testing.T) {
	srcs := map[string]string{
		"pointer": workload.TestPointerSource(3),
		"linpack": workload.LinpackSource(12, true),
		"bitonic": workload.BitonicSource(32, 1),
		"shards":  workload.MutatingShardsSource(4, 8, 2),
		"rate":    workload.WriteRateSource(4, 8, 1, 2),
		"random":  workload.RandomProgram(11),
	}
	type table struct {
		types  int
		digest uint32
	}
	want := map[string]table{}
	for name, src := range srcs {
		prog, err := Compile(src, PollPolicy{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = table{prog.TI.Len(), prog.TI.Digest()}
	}

	const rounds = 4
	errs := make(chan error, rounds*len(srcs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for name, src := range srcs {
			wg.Add(1)
			go func(name, src string) {
				defer wg.Done()
				<-start
				prog, err := Compile(src, PollPolicy{})
				if err != nil {
					errs <- fmt.Errorf("%s: %v", name, err)
					return
				}
				if got := (table{prog.TI.Len(), prog.TI.Digest()}); got != want[name] {
					errs <- fmt.Errorf("%s: TI table %+v, serial compile gave %+v", name, got, want[name])
				}
			}(name, src)
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
