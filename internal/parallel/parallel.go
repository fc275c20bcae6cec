// Package parallel is the bounded, deterministic data-parallel substrate
// for OSPREY's numerical hot paths (GP fitting and prediction, MUSIC
// candidate scoring, Goldstein chain fan-out, Saltelli evaluation, the
// multi-plant pipeline). It replaces ad-hoc unbounded goroutine fan-outs so
// that every compute-bound loop in the repository obeys one worker bound.
//
// The bound applies per call: one For or ForChunk call runs on at most
// Workers() goroutines. Concurrent callers each get up to Workers()
// goroutines of their own, so a process whose callers overlap (the
// interleaved GSA runs one goroutine per MUSIC instance, each fitting its
// own surrogate) can run several times Workers() loop goroutines at once,
// and the summed busy time of those loops can exceed wall-clock time
// multiplied by Workers().
//
// Determinism contract: For and ForChunk impose no ordering between
// iterations; callers obtain bit-identical results regardless of the worker
// count by writing each iteration's output to its own index slot and
// performing any reduction serially, in index order, after the loop
// returns. Every numerical caller in this repository follows that pattern,
// which is what the serial-vs-parallel equivalence tests in gp, music,
// sobolidx, rt, and core enforce.
//
// The worker count resolves, in order, from SetWorkers, the
// OSPREY_PARALLELISM environment variable, and GOMAXPROCS.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/obs"
)

// EnvVar is the environment variable consulted for the default worker count.
const EnvVar = "OSPREY_PARALLELISM"

var (
	mForCalls   = obs.GetCounter("parallel.for.calls")
	mForItems   = obs.GetCounter("parallel.for.items")
	mForInline  = obs.GetCounter("parallel.for.inline")
	mWorkersG   = obs.GetGauge("parallel.workers")
	mForDur     = obs.GetHistogram("parallel.for.duration")
	mForImbal   = obs.GetHistogram("parallel.for.imbalance")
	workerState struct {
		mu       sync.Mutex
		override int // explicit SetWorkers value (> 0)
		resolved int // cached env/GOMAXPROCS resolution
	}
)

// Workers returns the process-wide worker bound: the last positive
// SetWorkers value if any, else OSPREY_PARALLELISM if set to a positive
// integer, else GOMAXPROCS.
func Workers() int {
	workerState.mu.Lock()
	defer workerState.mu.Unlock()
	if workerState.override > 0 {
		return workerState.override
	}
	if workerState.resolved > 0 {
		return workerState.resolved
	}
	n := 0
	if s := os.Getenv(EnvVar); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	workerState.resolved = n
	mWorkersG.Set(int64(n))
	return n
}

// SetWorkers overrides the worker bound. Passing n <= 0 clears the override
// and re-resolves from the environment (so tests can flip
// OSPREY_PARALLELISM and call SetWorkers(0) to pick the change up).
func SetWorkers(n int) {
	workerState.mu.Lock()
	if n > 0 {
		workerState.override = n
		mWorkersG.Set(int64(n))
	} else {
		workerState.override = 0
		workerState.resolved = 0
	}
	workerState.mu.Unlock()
}

// panicValue carries a worker panic back to the caller's goroutine.
type panicValue struct {
	val any
}

// ForChunk runs fn over contiguous index chunks that exactly cover [0, n),
// using at most Workers() goroutines. Chunks are claimed dynamically, so an
// imbalanced workload (e.g. GP predictions against training sets of
// different sizes) still packs the workers. fn must treat its [lo, hi)
// range as exclusively owned; a panic inside fn is re-raised on the calling
// goroutine after all workers stop.
func ForChunk(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	mForCalls.Inc()
	mForItems.Add(int64(n))
	if w <= 1 || n == 1 {
		mForInline.Inc()
		fn(0, n)
		return
	}
	if w > n {
		w = n
	}
	// Four chunks per worker balances imbalance against claim overhead;
	// chunk boundaries never affect results (slot-writing contract).
	chunk := n / (w * 4)
	if chunk < 1 {
		chunk = 1
	}
	start := time.Now()
	var (
		next     atomic.Int64
		firstPan atomic.Pointer[panicValue]
		minBusy  atomic.Int64
		maxBusy  atomic.Int64
	)
	minBusy.Store(int64(^uint64(0) >> 1))
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			busyStart := time.Now()
			defer func() {
				if r := recover(); r != nil {
					firstPan.CompareAndSwap(nil, &panicValue{val: r})
				}
				busy := int64(time.Since(busyStart))
				for {
					cur := minBusy.Load()
					if busy >= cur || minBusy.CompareAndSwap(cur, busy) {
						break
					}
				}
				for {
					cur := maxBusy.Load()
					if busy <= cur || maxBusy.CompareAndSwap(cur, busy) {
						break
					}
				}
			}()
			for firstPan.Load() == nil {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	mForDur.ObserveSince(start)
	if imb := maxBusy.Load() - minBusy.Load(); imb > 0 {
		mForImbal.Observe(time.Duration(imb))
	}
	if p := firstPan.Load(); p != nil {
		panic(p.val)
	}
}

// For runs fn(i) for every i in [0, n) across the worker pool and returns
// when all iterations finish. See ForChunk for the determinism and panic
// contract.
func For(n int, fn func(i int)) {
	ForChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Do runs the given heterogeneous tasks across the worker pool — the
// replacement for ad-hoc `go`/WaitGroup fan-outs (Goldstein chains, plant
// polls) that previously ignored the worker bound.
func Do(fns ...func()) {
	For(len(fns), func(i int) { fns[i]() })
}
