package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// timing is one operation as the load generator saw it. due is when
// the operation should have started: its scheduled time in an open
// loop, the moment its client became free in a closed loop. Latency is
// timed from due, so a stall also charges the wait it imposes on the
// operations queued behind it.
type timing struct {
	due, sent, done time.Time
	err             error
}

func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// late is how far behind its schedule the generator sent the operation.
func (t timing) late() time.Duration { return t.sent.Sub(t.due) }

// openLoop runs operation i at start+offsets[i] on at most conns
// concurrent workers, regardless of how fast earlier operations
// complete. offsets must be ascending. Workers take operations in due
// order; one that is already late is sent at once.
func openLoop(start time.Time, offsets []time.Duration, conns int, do func(i int) error) []timing {
	out := make([]timing, len(offsets))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					return
				}
				due := start.Add(offsets[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				err := do(i)
				out[i] = timing{due: due, sent: sent, done: time.Now(), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs clients workers that each send their next operation
// as soon as the previous one completes. New operations start until
// the run has lasted dur and at least minOps have started, but never
// after limit; onDone, if non-nil, is called by the client after each
// completed operation with the number completed so far, and the
// client's next operation is due when it returns.
func closedLoop(start time.Time, dur, limit time.Duration, clients, minOps int, do func(i int) error, onDone func(n int)) []timing {
	var (
		mu    sync.Mutex
		out   []timing
		next  int
		wg    sync.WaitGroup
		doneN int
	)
	deadline, hardStop := start.Add(dur), start.Add(limit)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := start
			for {
				mu.Lock()
				now := time.Now()
				if (next >= minOps && !now.Before(deadline)) || !now.Before(hardStop) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				sent := time.Now()
				err := do(i)
				t := timing{due: due, sent: sent, done: time.Now(), err: err}
				mu.Lock()
				for len(out) <= i {
					out = append(out, timing{})
				}
				out[i] = t
				doneN++
				n := doneN
				mu.Unlock()
				due = t.done
				if onDone != nil {
					onDone(n)
					due = time.Now()
				}
			}
		}()
	}
	wg.Wait()
	return out
}
