package protocol

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The netsim engine thins per-crossing Bernoulli(p) loss coins into
// geometric inter-drop gaps, refilled by (a textually inlined copy of)
// SampleGeometricInv with the per-link constant invLog = 1/log(1-p)
// hoisted out of the walk. The tests here pin that batching to the
// exact per-edge law:
//
//   - TestSampleGeometricInvMatchesSampleGeometric locks the precomputed
//     multiply form Log(u)*invLog to SampleGeometric's divide form
//     Log(u)/Log(1-p) draw for draw, on the same uniform stream. Both
//     consume exactly one uniform per gap, so the paired streams stay
//     in lockstep for the whole run — any divergence in draw count or
//     value fails on the spot.
//   - TestSampleGeometricInvBernoulliLaw is the chi-square
//     goodness-of-fit of the thinned gaps against the Geometric(p) pmf
//     p(1-p)^(n-1), i.e. against what independent per-crossing coins
//     produce.
//   - TestSampleGeometricInvKolmogorovSmirnov bounds the KS distance
//     between the empirical gap CDF and 1-(1-p)^n.
//   - TestSampleJoinMatchesSampleGeometric and TestJoinLogTable lock
//     the Uncoordinated join draw, whose log(1-p) comes from a
//     per-level table, to SampleGeometric in the same way.
//
// All three run on committed PCG seeds, so they are deterministic:
// they guard refactors of the sampler, not the quality of math/rand.

// geomSeeds are the committed RNG seeds the law tests run over.
var geomSeeds = []uint64{1, 7, 42, 0x9e3779b97f4a7c15}

func TestSampleGeometricInvMatchesSampleGeometric(t *testing.T) {
	for _, p := range []float64{0.5, 0.25, 0.1, 0.02, 0.001, 1e-6} {
		invLog := 1 / math.Log(1-p)
		for _, seed := range geomSeeds {
			a := rand.New(rand.NewPCG(seed, seed))
			b := rand.New(rand.NewPCG(seed, seed))
			for i := 0; i < 200_000; i++ {
				want := int64(SampleGeometric(a, p))
				got := SampleGeometricInv(b, invLog)
				if got != want {
					t.Fatalf("p=%v seed=%d draw %d: SampleGeometricInv=%d, SampleGeometric=%d",
						p, seed, i, got, want)
				}
			}
		}
	}
}

// TestSampleJoinMatchesSampleGeometric locks the Uncoordinated join
// draw, which reads log(1-p) from the per-level table, to
// SampleGeometric at every level: the same countdown draw for draw, and
// the same RNG state afterwards (one uniform per draw, none at level
// 1).
func TestSampleJoinMatchesSampleGeometric(t *testing.T) {
	for lv := 1; lv <= MaxLevel; lv++ {
		p := 1 / float64(JoinThreshold(lv))
		for _, seed := range geomSeeds {
			a := rand.New(rand.NewPCG(seed, seed))
			b := rand.New(rand.NewPCG(seed, seed))
			for i := 0; i < 20_000; i++ {
				if want, got := SampleGeometric(a, p), SampleJoin(b, lv); got != want {
					t.Fatalf("level %d seed=%d draw %d: SampleJoin=%d, SampleGeometric=%d",
						lv, seed, i, got, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("level %d seed=%d: the two samplers left different RNG states", lv, seed)
			}
		}
	}
}

// TestJoinLogTable: every entry is finite and negative, levels up to 27
// hold exactly math.Log(1-p), and from level 28, where 1-p rounds to 1,
// the entry is math.Log1p(-p). A draw from the smallest uniform then
// stays in [1, maxCountdown] at every level and grows with the level,
// where dividing by log(1) = 0 used to clamp it to 1.
func TestJoinLogTable(t *testing.T) {
	for lv := 2; lv <= MaxLevel; lv++ {
		p := 1 / float64(JoinThreshold(lv))
		v := joinLog[lv-2]
		if math.IsInf(v, 0) || math.IsNaN(v) || v >= 0 {
			t.Fatalf("level %d: log(1-p) entry %v is not finite and negative", lv, v)
		}
		want := math.Log(1 - p)
		if lv >= 28 {
			want = math.Log1p(-p)
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("level %d: entry %v, want %v", lv, v, want)
		}
	}
	prev := 0
	for lv := 1; lv <= MaxLevel; lv++ {
		n := SampleJoin(rand.New(smallestUniform{}), lv)
		if n < 1 || n > maxCountdown || n < prev || (lv > 1 && n == prev && n != maxCountdown) {
			t.Fatalf("level %d: draw at the smallest uniform = %d (level %d drew %d)", lv, n, lv-1, prev)
		}
		prev = n
	}
	if prev != maxCountdown {
		t.Fatalf("top level: draw at the smallest uniform = %d, want the cap %d", prev, maxCountdown)
	}
}

// smallestUniform makes rand.Float64 return 2^-53, its smallest
// nonzero value.
type smallestUniform struct{}

func (smallestUniform) Uint64() uint64 { return 1 }

// TestSampleGeometricInvBernoulliLaw chi-square-tests gap samples
// against the Geometric(p) pmf. Cells are the gap values 1..k with the
// tail n > k pooled (by the exact tail mass (1-p)^k), k chosen so every
// expected count is comfortably above 5. The statistic is compared to
// the 99.99% chi-square quantile for the cell count — far out in the
// tail, so a correct sampler on these committed seeds passes with huge
// margin while a wrong law (e.g. an off-by-one gap, a clamped tail, or
// p misread as 1-p) blows past it.
func TestSampleGeometricInvBernoulliLaw(t *testing.T) {
	// crit[k] ~ chi-square 0.9999 quantile at k degrees of freedom
	// (k+1 pooled cells).
	crit := map[int]float64{5: 25.7, 10: 35.6, 20: 52.4}
	const n = 500_000
	for _, tc := range []struct {
		p float64
		k int // pooled cells: gaps 1..k plus the > k tail
	}{
		{0.5, 10},
		{0.1, 20},
		{0.02, 20},
		{0.004, 5},
	} {
		invLog := 1 / math.Log(1-tc.p)
		for _, seed := range geomSeeds {
			rng := rand.New(rand.NewPCG(seed, seed))
			obs := make([]int, tc.k+1) // obs[k] pools the tail
			for i := 0; i < n; i++ {
				g := SampleGeometricInv(rng, invLog)
				if g < 1 {
					t.Fatalf("p=%v seed=%d: gap %d < 1", tc.p, seed, g)
				}
				if g > int64(tc.k) {
					obs[tc.k]++
				} else {
					obs[g-1]++
				}
			}
			chi2 := 0.0
			q := 1 - tc.p
			cell := tc.p // P(gap = 1)
			tail := 1.0  // P(gap > 0)
			for v := 0; v < tc.k; v++ {
				exp := float64(n) * cell
				d := float64(obs[v]) - exp
				chi2 += d * d / exp
				tail *= q // P(gap > v+1) = (1-p)^(v+1)
				cell *= q
			}
			exp := float64(n) * tail
			d := float64(obs[tc.k]) - exp
			chi2 += d * d / exp
			if limit := crit[tc.k]; chi2 > limit {
				t.Errorf("p=%v seed=%d: chi-square %.1f over %d cells exceeds %.1f",
					tc.p, seed, chi2, tc.k+1, limit)
			}
		}
	}
}

// TestSampleGeometricInvKolmogorovSmirnov bounds the sup distance
// between the empirical gap CDF and the exact Geometric CDF
// 1-(1-p)^n. The threshold is ~2.2/sqrt(n) — past the 99.99% KS
// quantile for continuous data, and the discrete statistic is
// stochastically smaller still.
func TestSampleGeometricInvKolmogorovSmirnov(t *testing.T) {
	const n = 200_000
	for _, p := range []float64{0.5, 0.1, 0.02} {
		invLog := 1 / math.Log(1-p)
		// Count gaps up to a cutoff holding all but ~1e-9 of the mass.
		cutoff := int(math.Ceil(math.Log(1e-9)/math.Log(1-p))) + 1
		for _, seed := range geomSeeds {
			rng := rand.New(rand.NewPCG(seed, seed))
			counts := make([]int, cutoff+1)
			over := 0
			for i := 0; i < n; i++ {
				if g := SampleGeometricInv(rng, invLog); g <= int64(cutoff) {
					counts[g]++
				} else {
					over++
				}
			}
			ks, cum := 0.0, 0
			for v := 1; v <= cutoff; v++ {
				cum += counts[v]
				exact := 1 - math.Pow(1-p, float64(v))
				if d := math.Abs(float64(cum)/n - exact); d > ks {
					ks = d
				}
			}
			if limit := 2.2 / math.Sqrt(n); ks > limit {
				t.Errorf("p=%v seed=%d: KS distance %.5f exceeds %.5f (tail overflow %d)",
					p, seed, ks, limit, over)
			}
		}
	}
}
