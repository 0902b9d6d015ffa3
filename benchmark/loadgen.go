package main

import (
	"sync"
	"time"
)

// Call classes. A workload with one kind of call uses classCall only.
const (
	classCall  uint8 = iota // closed-loop call (the bulk echo on mixed_link)
	classSmall              // mixed_link's scheduled 8 B echo
	classCold               // wan_cache: first upload of a fresh matrix
	classWarm               // wan_cache: digest hit on a known matrix
)

// rec is one completed call as the caller saw it.
type rec struct {
	start, end int64 // ns since the run's epoch; start is the due time for scheduled calls
	bytes      int64 // logical argument+result bytes, from the shapes the harness generated
	class      uint8
	ok         bool // no error and the output checked out
}

// clock timestamps a run on the monotonic clock.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// stepFunc performs one unit of a closed-loop caller's work — one call,
// or one submit/fetch batch — checks its outputs and appends a rec per
// call.
type stepFunc func(clk clock, out *[]rec)

// openLoop is a fixed-rate schedule of calls, each timed from when it
// was due, so a stall charges every call that should have been sent
// during it (a closed-loop caller would simply send fewer).
type openLoop struct {
	period  time.Duration
	workers int
	// newCall returns one worker's call function; each worker owns its
	// buffers.
	newCall func() func(clk clock, due int64) rec
}

// drive runs every closed-loop caller back to back, and the open-loop
// schedule if any, from the epoch until end; calls in flight at end
// are completed, not cut. It returns every rec and, in µs, how late the
// schedule generator woke for each due time.
func drive(callers []stepFunc, open *openLoop, clk clock, end int64, expect int) (recs []rec, late []float64) {
	var wg sync.WaitGroup
	per := make([][]rec, len(callers))
	for i, step := range callers {
		per[i] = make([]rec, 0, expect)
		wg.Add(1)
		go func(i int, step stepFunc) {
			defer wg.Done()
			for clk.now() < end {
				step(clk, &per[i])
			}
		}(i, step)
	}
	var small [][]rec
	if open != nil {
		n := int(time.Duration(end)/open.period) + 1
		late = make([]float64, 0, n)
		// Sized to hold the whole schedule: the generator must never
		// block on a stalled system, that is the point of an open loop.
		due := make(chan int64, n)
		small = make([][]rec, open.workers)
		for k := 0; k < open.workers; k++ {
			small[k] = make([]rec, 0, n/open.workers+1)
			wg.Add(1)
			go func(k int, call func(clock, int64) rec) {
				defer wg.Done()
				for d := range due {
					small[k] = append(small[k], call(clk, d))
				}
			}(k, open.newCall())
		}
		for d := int64(0); d < end; d += int64(open.period) {
			if wait := d - clk.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			late = append(late, float64(clk.now()-d)/1e3)
			due <- d
		}
		close(due)
	}
	wg.Wait()
	for _, p := range per {
		recs = append(recs, p...)
	}
	for _, p := range small {
		recs = append(recs, p...)
	}
	return recs, late
}
