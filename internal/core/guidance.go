package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"nautilus/internal/param"
	"nautilus/internal/telemetry/trace"
)

// Guidance is a hint library compiled against one optimization query. It
// implements ga.Strategy, replacing the baseline's uniform mutation
// operators with hint-weighted ones:
//
//   - gene selection draws mutation victims with probability blended
//     between uniform (weight 1-confidence) and importance-proportional
//     (weight confidence), where importance decays per generation;
//   - value assignment follows the oriented bias or target with
//     probability confidence, and falls back to the baseline's uniform
//     draw otherwise.
//
// Confidence 0 therefore reproduces the baseline GA exactly in
// distribution, and the engine remains able to visit any point of the
// space at any confidence < 1.
type Guidance struct {
	space      *param.Space
	confidence float64
	// tr observes each guided-mutation decision (which mechanism fired,
	// and the confidence-gate outcome) after the engine's RNG has already
	// made it - the paper's Table 1 hints, now measurable per run. nil
	// (the default) records nothing.
	tr *trace.Tracer

	importance []float64 // base importance per parameter (neutral = 1)
	impSet     []bool
	decay      []float64
	bias       []float64 // oriented: >0 means increasing the axis improves the objective
	target     []float64 // on the parameter's numeric axis
	hasTarget  []bool
	step       []int   // max mutation step (0 = unset)
	order      [][]int // rank -> value index for ordering-hinted categorical params

	// Gene-pick scratch, written by MutationGenes: generation wGen's
	// blended weights over len(blended) genes, their sum, and the sampling
	// buffer. clone drops it, so no two copies share it.
	wGen    int
	wTotal  float64
	blended []float64
	work    []float64
}

func newGuidance(space *param.Space, confidence float64) *Guidance {
	n := space.Len()
	return &Guidance{
		space:      space,
		confidence: confidence,
		importance: make([]float64, n),
		impSet:     make([]bool, n),
		decay:      make([]float64, n),
		bias:       make([]float64, n),
		target:     make([]float64, n),
		hasTarget:  make([]bool, n),
		step:       make([]int, n),
		order:      make([][]int, n),
	}
}

// Confidence returns the guidance's global trust level.
func (g *Guidance) Confidence() float64 { return g.confidence }

// WithConfidence returns a copy of the guidance with a different confidence
// - the single knob separating the paper's "weakly guided" and "strongly
// guided" configurations.
func (g *Guidance) WithConfidence(c float64) *Guidance {
	out := g.clone()
	if math.IsNaN(c) {
		c = 0 // NaN trust is no trust; clamp would pass NaN through
	}
	out.confidence = clamp(c, 0, 1)
	return out
}

// WithTracer returns a copy of the guidance reporting hint decisions to
// tr (nil records nothing), sharing the compiled hint tables but not the
// gene-pick scratch. Search hands every engine such a copy, so one
// Guidance can steer concurrent searches without being written by them.
func (g *Guidance) WithTracer(tr *trace.Tracer) *Guidance {
	out := g.clone()
	out.tr = tr
	return out
}

// clone copies g without its gene-pick scratch.
func (g *Guidance) clone() *Guidance {
	out := *g
	out.blended, out.work = nil, nil
	return &out
}

// Bias returns the oriented bias compiled for parameter i (positive means
// increasing the parameter's axis is expected to improve the objective).
func (g *Guidance) Bias(i int) float64 { return g.bias[i] }

// ImportanceAt returns parameter i's effective importance at the given
// generation, after decay toward the neutral value 1.
func (g *Guidance) ImportanceAt(i, gen int) float64 {
	imp := g.importance[i]
	if imp <= 1 {
		return 1
	}
	d := g.decay[i]
	if d <= 0 || gen <= 0 {
		return imp
	}
	return 1 + (imp-1)*math.Pow(1-d, float64(gen))
}

// MutationGenes implements ga.Strategy. The number of mutations matches the
// baseline in distribution (one coin per gene at the configured rate); which
// genes receive them is drawn from the importance-blended distribution,
// computed once per generation into g's scratch. Only one engine may drive
// a Guidance at a time; Search gives each engine its own copy.
func (g *Guidance) MutationGenes(r *rand.Rand, gen int, genome param.Point, rate float64, dst []int) []int {
	n := 0
	for range genome {
		if r.Float64() < rate {
			n++
		}
	}
	if n == 0 {
		return dst
	}
	if n > len(genome) {
		n = len(genome)
	}
	if gen != g.wGen || len(genome) != len(g.blended) {
		g.blend(gen, len(genome))
	}

	// Weighted sampling without replacement, over a copy of the blend.
	weights := append(g.work[:0], g.blended...)
	g.work = weights
	total := g.wTotal
	start := len(dst)
	for len(dst)-start < n && total > 1e-12 {
		x := r.Float64() * total
		for i, w := range weights {
			if w == 0 {
				continue
			}
			x -= w
			if x <= 0 {
				dst = append(dst, i)
				total -= w
				weights[i] = 0
				break
			}
		}
	}
	if g.tr.Enabled() {
		// Gene-pick blending is continuous rather than gated, so classify
		// each pick by whether an importance skew was actually in effect
		// for that gene at this generation (hint set, not fully decayed,
		// confidence > 0); the complement is an effectively uniform pick.
		for _, i := range dst[start:] {
			mech := trace.HintGeneUniform
			if g.confidence > 0 && g.ImportanceAt(i, gen) > 1 {
				mech = trace.HintGeneImportance
			}
			g.tr.RecordHint(trace.HintRecord{Generation: gen, Gene: i, Mechanism: mech})
		}
	}
	return dst
}

// blend computes generation gen's gene-pick weights over n genes - each
// gene's decayed importance, normalized and blended with uniform by
// confidence - and their sum.
func (g *Guidance) blend(gen, n int) {
	w := g.blended[:0]
	var impSum float64
	for i := 0; i < n; i++ {
		w = append(w, g.ImportanceAt(i, gen))
		impSum += w[i]
	}
	uniform := 1.0 / float64(n)
	total := 0.0
	for i := range w {
		w[i] = (1-g.confidence)*uniform + g.confidence*w[i]/impSum
		total += w[i]
	}
	g.wGen, g.wTotal, g.blended = gen, total, w
}

// axisRank returns gene value vi's position along parameter i's working
// axis (0..card-1), and whether such an axis exists. Natively ordered
// parameters use their index order (which coincides with their numeric
// order); ordering-hinted categoricals use the hint's ranks.
func (g *Guidance) axisRank(i, vi int) (int, bool) {
	if g.order[i] != nil {
		for rank, idx := range g.order[i] {
			if idx == vi {
				return rank, true
			}
		}
		return 0, false
	}
	if g.space.Param(i).IsOrdered() {
		return vi, true
	}
	return 0, false
}

// valueAtRank is the inverse of axisRank.
func (g *Guidance) valueAtRank(i, rank int) int {
	if g.order[i] != nil {
		return g.order[i][rank]
	}
	return rank
}

// targetRank returns the axis rank closest to parameter i's target.
func (g *Guidance) targetRank(i int) int {
	p := g.space.Param(i)
	if g.order[i] != nil {
		// Target was stored as a rank by SetTargetChoice.
		rank := int(math.Round(g.target[i]))
		return int(clamp(float64(rank), 0, float64(p.Card()-1)))
	}
	if p.IsOrdered() {
		return p.NearestIndex(g.target[i])
	}
	// Unordered without ordering hint: target is a raw value index.
	return int(clamp(math.Round(g.target[i]), 0, float64(p.Card()-1)))
}

// MutateValue implements ga.Strategy: guided value assignment.
func (g *Guidance) MutateValue(r *rand.Rand, gen int, i, current int) int {
	p := g.space.Param(i)
	card := p.Card()
	if card <= 1 {
		return current
	}

	guided := r.Float64() < g.confidence
	if guided && g.hasTarget[i] {
		g.tr.RecordHint(trace.HintRecord{
			Generation: gen, Gene: i, Mechanism: trace.HintValueTarget, Guided: true,
		})
		return g.mutateTowardTarget(r, i, current)
	}
	if guided && g.bias[i] != 0 {
		if v, ok := g.mutateAlongBias(r, i, current); ok {
			g.tr.RecordHint(trace.HintRecord{
				Generation: gen, Gene: i, Mechanism: trace.HintValueBias, Guided: true,
			})
			return v
		}
	}
	// Baseline fallback: uniform different value. Guided carries the
	// confidence-gate outcome even here, so gate-open-but-deferred moves
	// (weak bias, no hint for this gene) are distinguishable from
	// gate-closed ones.
	g.tr.RecordHint(trace.HintRecord{
		Generation: gen, Gene: i, Mechanism: trace.HintValueUniform, Guided: guided,
	})
	v := r.Intn(card - 1)
	if v >= current {
		v++
	}
	return v
}

// geometricStep draws a step size >= 1 with P(s) halving per increment,
// capped by the parameter's step hint (if any) and the axis length.
func (g *Guidance) geometricStep(r *rand.Rand, i, maxStep int) int {
	s := 1
	for s < maxStep && r.Float64() < 0.5 {
		s++
	}
	if hint := g.step[i]; hint > 0 && s > hint {
		s = hint
	}
	return s
}

// mutateTowardTarget samples a value clustered around the target rank.
func (g *Guidance) mutateTowardTarget(r *rand.Rand, i, current int) int {
	p := g.space.Param(i)
	card := p.Card()
	tr := g.targetRank(i)

	// Offset from the target: 0 with probability ~0.65, then decaying -
	// tight enough that low-cardinality parameters actually cluster.
	off := 0
	for off < card-1 && r.Float64() < 0.35 {
		off++
	}
	if hint := g.step[i]; hint > 0 && off > hint {
		off = hint
	}
	if off > 0 && r.Intn(2) == 1 {
		off = -off
	}
	rank := int(clamp(float64(tr+off), 0, float64(card-1)))
	v := g.valueAtRank(i, rank)
	if v != current {
		return v
	}
	// Nudge one rank toward (or past) the target to guarantee movement.
	curRank, ok := g.axisRank(i, current)
	if !ok {
		curRank = rank
	}
	switch {
	case curRank < tr:
		rank = curRank + 1
	case curRank > tr:
		rank = curRank - 1
	case curRank+1 < card:
		rank = curRank + 1
	default:
		rank = curRank - 1
	}
	return g.valueAtRank(i, rank)
}

// mutateAlongBias moves the gene along the oriented bias direction with
// probability |bias|; it reports ok=false when no axis exists or the bias
// gate defers to uniform. A gene already pinned at the favorable boundary
// takes a minimal step inward instead - guided search explores locally
// around a converged gene rather than teleporting it (the (1-confidence)
// and (1-|bias|) uniform paths preserve full reachability).
func (g *Guidance) mutateAlongBias(r *rand.Rand, i, current int) (int, bool) {
	curRank, ok := g.axisRank(i, current)
	if !ok {
		return 0, false
	}
	b := g.bias[i]
	if r.Float64() >= math.Abs(b) {
		return 0, false // probabilistic: weak biases mostly defer to uniform
	}
	card := g.space.Param(i).Card()
	dir := 1
	if b < 0 {
		dir = -1
	}
	maxStep := card - 1
	s := g.geometricStep(r, i, maxStep)
	rank := curRank + dir*s
	if rank < 0 {
		rank = 0
	}
	if rank > card-1 {
		rank = card - 1
	}
	if rank == curRank {
		// Pinned at the favorable boundary: minimal inward step.
		rank = curRank - dir
		if rank < 0 || rank > card-1 {
			return 0, false
		}
	}
	return g.valueAtRank(i, rank), true
}

// Describe renders the compiled per-parameter guidance as a human-readable
// multi-line summary - what an IP user sees when asking "how is this
// search being steered?".
func (g *Guidance) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "confidence %.2f\n", g.confidence)
	for i := 0; i < g.space.Len(); i++ {
		p := g.space.Param(i)
		fmt.Fprintf(&b, "  %-16s importance %5.1f", p.Name(), g.importance[i])
		if g.decay[i] > 0 {
			fmt.Fprintf(&b, " (decay %.2f)", g.decay[i])
		}
		switch {
		case g.hasTarget[i]:
			fmt.Fprintf(&b, "  target %.4g", g.target[i])
		case g.bias[i] != 0:
			fmt.Fprintf(&b, "  bias %+.2f", g.bias[i])
		}
		if g.step[i] > 0 {
			fmt.Fprintf(&b, "  step<=%d", g.step[i])
		}
		if g.order[i] != nil {
			vals := make([]string, len(g.order[i]))
			for rank, vi := range g.order[i] {
				vals[rank] = p.StringValue(vi)
			}
			fmt.Fprintf(&b, "  order %s", strings.Join(vals, "<"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
