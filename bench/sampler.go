package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// sampler polls the Go heap, and any extra probe, at 10 Hz while a
// workload measures. It is not load: it calls no API of the system.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	heapPeak uint64
	allocs0  uint64
	cpu0     time.Duration
	probe    func()
}

// startSampler begins sampling; probe, when non-nil, runs on every tick.
func startSampler(probe func()) *sampler {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &sampler{
		stop: make(chan struct{}), done: make(chan struct{}),
		heapPeak: ms.HeapAlloc, allocs0: ms.TotalAlloc, cpu0: processCPU(), probe: probe,
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	s.heapPeak = max(s.heapPeak, ms.HeapAlloc)
	s.mu.Unlock()
	if s.probe != nil {
		s.probe()
	}
}

// finish stops sampling, takes a last sample and records the heap peak and
// the bytes allocated since the start into ph.
func (s *sampler) finish(ph *phase) {
	close(s.stop)
	<-s.done
	s.sample()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	defer s.mu.Unlock()
	ph.heapPeak = max(ph.heapPeak, s.heapPeak)
	ph.allocs += ms.TotalAlloc - s.allocs0
	ph.cpu += processCPU() - s.cpu0
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
