package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunSpec is one independent simulation job: it builds a fresh,
// fully-configured machine, runs the workload, and returns the raw
// metrics the experiment's renderer consumes. A spec owns its engine and
// seed and shares no state with any other spec, so any subset of a spec
// list may execute concurrently without changing its result.
type RunSpec func() any

// experiment pairs one sweep's spec list with a renderer that assembles
// the rendered tables from the results, which arrive in spec order. The
// split lets Run pool the specs of many experiments onto one set of
// workers while table assembly stays deterministic.
type experiment struct {
	specs  []RunSpec
	render func(results []any) []Table
}

// runSpecs executes specs on a pool of workers host goroutines and
// returns the results in spec order. workers <= 1 runs every spec
// serially in the calling goroutine; because each spec is self-contained,
// the results are identical for every worker count.
func runSpecs(specs []RunSpec, workers int) []any {
	results := make([]any, len(specs))
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		for i := range specs {
			results[i] = specs[i]()
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				results[i] = specs[i]()
			}
		}()
	}
	wg.Wait()
	return results
}

// workers resolves Options.Workers: 0 (or negative) means one worker per
// available CPU.
func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}
