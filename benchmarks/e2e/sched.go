package main

import "time"

// clock is the time source of the open-loop scheduler; tests inject a
// fake one to stall an op without waiting.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoopResult is what one open-loop run measured. Latency is taken
// from the instant an op was due, not from when it was sent: when a
// slow op delays the ones behind it, their wait counts, as it would
// for independent users who send on their own schedule.
type openLoopResult struct {
	latency  []time.Duration // due → done, one per op
	lateness []time.Duration // due → actually sent, one per op
	elapsed  time.Duration
}

// runOpenLoop issues op(i) at start + i·interval for every i whose due
// time falls before start + length, from the calling goroutine. An op
// that overruns its slot makes the following ops late; it never makes
// them be skipped or rescheduled.
func runOpenLoop(clk clock, interval, length time.Duration, op func(i int)) openLoopResult {
	var res openLoopResult
	start := clk.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= length {
			break
		}
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		op(i)
		res.latency = append(res.latency, clk.Now().Sub(due))
		res.lateness = append(res.lateness, sent.Sub(due))
	}
	res.elapsed = clk.Now().Sub(start)
	return res
}
