package main

import "time"

// openLoop issues n operations on a fixed schedule, operation i due at
// start + i*interval, whether or not earlier ones have completed: the
// arrival process of independent users. A generator that falls behind
// does not shift the schedule — it issues the overdue operations at once
// and the time it was behind is returned as lateness, so a latency timed
// from the due time includes the wait a stall imposed on later arrivals.
//
// now and sleep are injected so the lateness accounting can be tested on
// a fake clock.
type openLoop struct {
	interval time.Duration
	n        int
	// maxNap bounds one sleep so poll runs at least that often.
	maxNap time.Duration
	now    func() time.Time
	sleep  func(time.Duration)
}

func (o openLoop) due(start time.Time, i int) time.Time {
	return start.Add(time.Duration(i) * o.interval)
}

// run drives the schedule from one goroutine. issue(i) starts operation
// i; poll(now) lets the caller observe completions and returns how many
// operations are still outstanding. After the last issue, run keeps
// polling until nothing is outstanding or drain has passed. It returns
// each operation's lateness: how long after its due time it was issued.
func (o openLoop) run(start time.Time, issue func(i int), poll func(now time.Time) int, drain time.Duration) []time.Duration {
	lateness := make([]time.Duration, 0, o.n)
	next := 0
	for next < o.n {
		now := o.now()
		for next < o.n && !o.due(start, next).After(now) {
			lateness = append(lateness, now.Sub(o.due(start, next)))
			issue(next)
			next++
			now = o.now()
		}
		poll(now)
		if next < o.n {
			nap := o.due(start, next).Sub(o.now())
			if nap > o.maxNap {
				nap = o.maxNap
			}
			if nap > 0 {
				o.sleep(nap)
			}
		}
	}
	deadline := o.now().Add(drain)
	for poll(o.now()) > 0 && o.now().Before(deadline) {
		o.sleep(o.maxNap)
	}
	return lateness
}
