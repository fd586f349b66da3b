package adaptive

import (
	"math/bits"
	"sync"

	"repro/internal/core"
)

// The planner's parameters are constants, fixed once like the paper
// fixes Θ̃ and L0 in §VI-B: nothing in the repository ever ran with
// other values.
const (
	// searchL0 and theta are the floor and the empirical IIR threshold
	// of the block-size search the prediction stands in for — the
	// sort kernels' own defaults, the paper's L0 and Θ̃.
	searchL0 = core.DefaultInitialBlockSize
	theta    = core.DefaultThreshold
	// decay is the weight kept on prior flush generations when a new
	// generation's sketch is folded in: the per-sensor state is an
	// exponentially decayed histogram over generations, so a drifting
	// delay distribution is forgotten in a few flushes.
	decay = 0.5
	// StableRuns is how many consecutive searches must confirm the
	// same L before the planner skips the search.
	StableRuns = 3
	// revalidateEvery forces a real (seeded) search every Nth flush of
	// a sensor even when its prediction is stable, so a drift the
	// sketch underestimates cannot pin a bad L forever.
	revalidateEvery = 8
	// minSamples is the decayed point count below which the planner
	// makes no sketch-informed decision.
	minSamples = 64
)

// maxPredictL caps the predicted block size; BackwardSort clamps L to
// the chunk length anyway, so a prediction beyond this only wastes
// doubling steps.
const maxPredictL = 1 << 20

// Decision is the planner's per-sensor, per-flush sort-path plan.
type Decision struct {
	// FixedL, when positive, pins the block size and skips the search
	// entirely — the prediction has been stable across StableRuns
	// confirming searches.
	FixedL int
	// SeedL, when positive, seeds the block-size search: the search
	// starts doubling from here instead of from L0. Mutually exclusive
	// with FixedL.
	SeedL int
	// Phase is the anchor for the search's stride-L subsample (see
	// core.Options.SearchPhase). It is stable per sensor but distinct
	// across sensors: distinct anchors keep a fleet-wide periodic
	// timestamp pattern from aliasing every sensor's estimate the same
	// way, while a stable anchor keeps the search deterministic per
	// sensor — a rotating anchor makes the chosen L flap on periodic
	// patterns, which resets the stability count and blocks pinning.
	Phase int
	// SavedIterations estimates how many doubling-search iterations
	// the decision avoids versus the default search from L0: all of
	// them when FixedL skips the search, the iterations below the seed
	// when SeedL shortcuts its start.
	SavedIterations int
	// Sketched reports whether the planner had enough per-sensor
	// signal to inform the decision; false means defaults were used.
	Sketched bool
}

// sensorState is the decayed cross-generation disorder state of one
// sensor.
type sensorState struct {
	late     [LateBuckets]float64
	n        float64
	ooo      float64
	interval float64
	phase    int   // per-sensor subsample anchor (phaseOf)
	lastL    int   // last search-confirmed (or stably predicted) block size
	agree    int   // consecutive confirmations of lastL
	flushes  int64 // flush generations folded in
}

// Planner turns per-flush sketch snapshots into sort-path decisions.
// It persists across flush generations — each generation's sketch is
// folded into an exponentially decayed per-sensor state — and is safe
// for concurrent use by the engine's flush workers.
type Planner struct {
	mu      sync.Mutex
	sensors map[string]*sensorState
}

// NewPlanner creates an empty Planner.
func NewPlanner() *Planner {
	return &Planner{sensors: make(map[string]*sensorState)}
}

// Plan folds one flush generation's sketch into the sensor's decayed
// state and returns the sort-path decision for that sensor's chunk.
func (p *Planner) Plan(sensor string, sk Snapshot) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()

	st := p.sensors[sensor]
	if st == nil {
		st = &sensorState{phase: phaseOf(sensor)}
		p.sensors[sensor] = st
	}
	st.flushes++
	d := Decision{Phase: st.phase}

	// Fold the generation in under exponential decay.
	st.n = decay*st.n + float64(sk.N)
	st.ooo = decay*st.ooo + float64(sk.OOO)
	for i := range st.late {
		st.late[i] = decay*st.late[i] + float64(sk.Late[i])
	}
	if sk.N >= 2 {
		iv := sk.Interval()
		if st.interval == 0 {
			st.interval = iv
		} else {
			st.interval = decay*st.interval + (1-decay)*iv
		}
	}

	if st.n < minSamples {
		// Not enough signal: default search.
		st.agree = 0
		st.lastL = 0
		return d
	}
	d.Sketched = true

	pred := predictL(st)
	// Seed the search at half the prediction: one cheap estimate
	// below the target confirms it from underneath, and an
	// overestimated sketch cannot pin an oversized L because the
	// doubling search never descends.
	seed := pred / 2
	if seed < searchL0 {
		seed = searchL0
	}
	// Pinning keys on search stability — the same L confirmed
	// StableRuns times — with the prediction as a drift tripwire only:
	// the histogram-derived pred routinely sits a factor 2-4 off the
	// searched L (the histogram sees lateness, the search sees the
	// realized permutation), so demanding exact agreement would block
	// pinning on perfectly stationary sensors. A prediction that moves
	// outside the factor-2 band around the confirmed L signals a
	// distribution shift and drops the sensor back to a seeded search
	// — kept tight so a burst→calm transition unpins within a couple
	// of flushes instead of sorting calm chunks at the burst's L. The
	// pinned value is the search-confirmed lastL: measurement trumps
	// prediction.
	if st.agree >= StableRuns &&
		pred <= st.lastL*2 && st.lastL <= pred*2 &&
		st.flushes%revalidateEvery != 0 {
		// Stable and not a revalidation turn: skip the search. The
		// default search would have tested L0, 2L0, …, lastL — count
		// those scans as saved.
		d.FixedL = st.lastL
		d.SavedIterations = log2Ratio(st.lastL, searchL0) + 1
		return d
	}
	d.SeedL = seed
	d.SavedIterations = log2Ratio(seed, searchL0)
	return d
}

// Unplanned is the decision for a sort the planner does not plan:
// every query-side sort, which runs many times per flush generation and
// must not advance state that decays once per generation, and every
// unsequence chunk, which is late by construction and must not feed
// the sequence chunk's state. It is the default block-size search at
// the sensor's phase: a function of the name alone, so it needs no
// planner and no lock.
func Unplanned(sensor string) Decision {
	return Decision{Phase: phaseOf(sensor)}
}

// Observe feeds back the result of a real (seeded or default) search:
// measurement trumps prediction, so stability is counted on confirmed
// block sizes only. Decisions that skipped the search must not call
// Observe — a pinned L confirming itself would be circular.
//
// A result one power of 2 away from the last still counts as
// agreement: the search flaps between adjacent powers exactly when
// α̃ sits at Θ for one of them, which is also when the two block
// sizes cost nearly the same — resetting stability there would block
// pinning on sensors that are stationary in every way that matters.
// The pin keeps the larger of the two: oversizing by one power costs
// a slightly deeper block sort, undersizing can explode merge work.
func (p *Planner) Observe(sensor string, chosenL int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.sensors[sensor]
	if st == nil {
		return
	}
	switch {
	case chosenL == st.lastL:
		st.agree++
	case chosenL == st.lastL*2:
		st.agree++
		st.lastL = chosenL
	case st.lastL > 1 && chosenL == st.lastL/2:
		st.agree++
	default:
		st.agree = 0
		st.lastL = chosenL
	}
}

// phaseOf derives a sensor's subsample anchor from its name (FNV-1a),
// which spreads the anchors across residues of any small block size.
// A function of the name alone, not of the order flush workers happen
// to reach the planner in: two engines fed the same writes plan the
// same sorts, so even the arbitrary tie order Backward-Sort leaves
// among equal timestamps is reproducible.
func phaseOf(sensor string) int {
	h := uint32(2166136261)
	for i := 0; i < len(sensor); i++ {
		h = (h ^ uint32(sensor[i])) * 16777619
	}
	return int(h >> 1)
}

// predictL converts the decayed lateness histogram into the block size
// the paper's search would pick: the smallest L = L0·2^k whose
// predicted empirical IIR clears Θ. A point late by ℓ ticks sits
// ≈ ℓ/interval records behind its in-order position, so
// P(t_i > t_{i+L}) ≈ P(lateness > L·interval) — the histogram tail
// above L·interval, with the straddling bucket interpolated linearly.
func predictL(st *sensorState) int {
	L := searchL0
	iv := st.interval
	if iv < 1 {
		iv = 1
	}
	for L < maxPredictL {
		x := float64(L) * iv
		if histTail(&st.late, x)/st.n < theta {
			break
		}
		L *= 2
	}
	return L
}

// histTail estimates how many histogram points exceed lateness x.
// Buckets entirely above x count fully; the straddling bucket
// contributes the linear fraction of its [2^i, 2^(i+1)) range above x.
func histTail(late *[LateBuckets]float64, x float64) float64 {
	var tail float64
	for i := 0; i < LateBuckets; i++ {
		if late[i] == 0 {
			continue
		}
		lo := float64(int64(1) << uint(i))
		hi := lo * 2
		switch {
		case lo > x:
			tail += late[i]
		case hi > x:
			tail += late[i] * (hi - x) / (hi - lo)
		}
	}
	return tail
}

// log2Ratio returns floor(log2(l / l0)) for l >= l0 > 0, the number of
// doublings between them.
func log2Ratio(l, l0 int) int {
	if l <= l0 {
		return 0
	}
	return bits.Len(uint(l/l0)) - 1
}
