package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentRewritesQueriedPerTimestamp races writers, queries,
// Flush and Compact on one sensor (run it with -race). Writers rewrite
// their own timestamps — late, in order, and again and again — so every
// query meets working chunks with published sorted images, tails since
// them, flushing units and files at once. Each timestamp is one
// register owned by one writer, so that writer's order is the write
// order: a value carries its write's version. Every answer must
// strictly increase in time, hold every timestamp acknowledged before
// the query began, and give each one a value no older than the newest
// write acknowledged before the query began.
func TestConcurrentRewritesQueriedPerTimestamp(t *testing.T) {
	const (
		writers = 2
		batches = 150
		batch   = 100
		span    = 4000 // timestamps each writer owns: t ≡ w (mod writers)
	)
	e, err := Open(Config{
		Dir:            t.TempDir(),
		MemTableSize:   1500,
		FlushWorkers:   2,
		blockPoints:    64,
		l0CompactFiles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// A value encodes (version, timestamp), so an answer's pairing is
	// checked too. Versions grow per writer.
	value := func(ver int, ts int64) float64 { return float64(ver)*1e6 + float64(ts) }
	type write struct {
		times []int64
		ver   int
	}
	var logMu sync.Mutex
	logs := make([][]write, writers) // acknowledged batches, per writer

	var wg sync.WaitGroup
	var writing atomic.Int32
	writing.Store(writers)
	// Writers wait for a Flush and Compact round every few batches, so
	// those interleave with the writes on any scheduler.
	var rounds atomic.Int64
	awaitRound := func(last *int64) {
		for writing.Load() > 0 && rounds.Load() == *last {
			runtime.Gosched()
		}
		*last = rounds.Load()
	}
	errs := make(chan error, 16)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writing.Add(-1)
			r := rand.New(rand.NewSource(int64(w) + 7))
			next := 0 // the writer's next in-order slot
			var round int64
			for ver := 1; ver <= batches; ver++ {
				if ver%10 == 0 {
					awaitRound(&round)
				}
				ts := make([]int64, batch)
				vs := make([]float64, batch)
				for i := range ts {
					slot := next
					switch k := r.Intn(10); {
					case k < 2 && next > 0: // rewrite or late write, far back
						slot = r.Intn(next)
					case k < 4 && next > 0: // late by a little
						slot = max(0, next-1-r.Intn(50))
					default:
						next = min(next+1, span-1)
					}
					ts[i] = int64(slot*writers + w)
					vs[i] = value(ver, ts[i])
				}
				if err := e.InsertBatch("s", ts, vs); err != nil {
					errs <- err
					return
				}
				logMu.Lock()
				logs[w] = append(logs[w], write{ts, ver})
				logMu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() { // flushes and compactions race everything else
		defer wg.Done()
		for writing.Load() > 0 {
			e.Flush()
			if err := e.Compact(); err != nil {
				errs <- err
				return
			}
			rounds.Add(1)
		}
	}()
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(q) + 100))
			acked := map[int64]int{} // newest acknowledged version per timestamp
			applied := make([]int, writers)
			for n := 0; writing.Load() > 0 || n < 3; n++ {
				logMu.Lock()
				seen := make([][]write, writers)
				for w := range logs {
					seen[w] = logs[w][applied[w]:]
					applied[w] = len(logs[w])
				}
				logMu.Unlock()
				for _, l := range seen {
					for _, wr := range l {
						for _, ts := range wr.times {
							acked[ts] = max(acked[ts], wr.ver)
						}
					}
				}
				minT := int64(r.Intn(span * writers))
				maxT := minT + int64(r.Intn(span*writers))
				if n%4 == 0 {
					minT, maxT = 0, span*writers
				}
				out, err := e.Query("s", minT, maxT)
				if err != nil {
					errs <- err
					return
				}
				if err := checkRegisters(out, acked, minT, maxT); err != nil {
					errs <- fmt.Errorf("query %d [%d,%d]: %w", n, minT, maxT, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := e.Stats(); st.FlushCount == 0 || st.CompactionPasses == 0 || st.QuerySortedPoints == 0 {
		t.Fatalf("the race never met a flush (%d), a compaction (%d) or a query sort (%d)",
			st.FlushCount, st.CompactionPasses, st.QuerySortedPoints)
	}
}

// checkRegisters checks one answer over [minT, maxT] against the
// versions acknowledged before the query began.
func checkRegisters(out []TV, acked map[int64]int, minT, maxT int64) error {
	got := make(map[int64]int, len(out))
	for i, p := range out {
		if i > 0 && out[i-1].T >= p.T {
			return fmt.Errorf("times not strictly increasing at %d: %d then %d", i, out[i-1].T, p.T)
		}
		ver := int(p.V / 1e6)
		if ts := int64(p.V - float64(ver)*1e6); ts != p.T || p.T < minT || p.T > maxT {
			return fmt.Errorf("record (%d, %v) is out of range or carries another timestamp's value", p.T, p.V)
		}
		got[p.T] = ver
	}
	for ts, ver := range acked {
		if ts < minT || ts > maxT {
			continue
		}
		if g, ok := got[ts]; !ok {
			return fmt.Errorf("timestamp %d, acknowledged at version %d, is missing", ts, ver)
		} else if g < ver {
			return fmt.Errorf("timestamp %d reads version %d, older than the acknowledged %d", ts, g, ver)
		}
	}
	return nil
}
