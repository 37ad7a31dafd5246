// Package redundancy implements the paper's Definition 3 redundancy
// measure and its analytical consequences: the Appendix B expected link
// rate under uncoordinated random joins (the source of Figure 5), the
// multi-layer extension (technical-report Appendix E, reconstructed), and
// the Section 3.1 closed form for the impact of redundancy on constrained
// fair rates (Figure 6).
//
// Redundancy of link l_j for session S_i is
//
//	u_{i,j} / max{a_{i,k} : r_{i,k} ∈ R_{i,j}}
//
// the ratio of bandwidth the session actually uses on the link to the
// theoretical minimum needed to deliver the downstream receivers' rates.
// A session is "efficient" on a link when its redundancy is 1.
package redundancy

import (
	"math"
	"math/rand/v2"

	"mlfair/internal/netmodel"
)

// ExpectedLinkRate returns E[U_{i,j}] for a single layer of transmission
// rate layerRate crossed by receivers that each independently pick their
// packets uniformly at random within a quantum (Appendix B):
//
//	E[U] = Λ (1 - Π_t (1 - a_t/Λ))
//
// rates must satisfy 0 <= a_t <= layerRate; layerRate must be positive.
func ExpectedLinkRate(rates []float64, layerRate float64) float64 {
	if layerRate <= 0 {
		panic("redundancy: non-positive layer rate")
	}
	miss := 1.0
	for _, a := range rates {
		if a < 0 || a > layerRate+netmodel.Eps {
			panic("redundancy: receiver rate outside [0, layer rate]")
		}
		miss *= 1 - a/layerRate
	}
	return layerRate * (1 - miss)
}

// SingleLayer returns the redundancy of a single random-join layer:
// ExpectedLinkRate(rates, layerRate) / max(rates). It panics if all rates
// are zero (redundancy is undefined with no downstream demand).
func SingleLayer(rates []float64, layerRate float64) float64 {
	m := maxRate(rates)
	if m == 0 {
		panic("redundancy: undefined for all-zero rates")
	}
	return ExpectedLinkRate(rates, layerRate) / m
}

// UpperBound returns the paper's asymptotic bound Λ/max(rates): the
// redundancy a single layer approaches as the number of receivers grows.
func UpperBound(rates []float64, layerRate float64) float64 {
	m := maxRate(rates)
	if m == 0 {
		panic("redundancy: undefined for all-zero rates")
	}
	return layerRate / m
}

func maxRate(rates []float64) float64 {
	m := 0.0
	for _, a := range rates {
		if a > m {
			m = a
		}
	}
	return m
}

// MonteCarloLinkRate estimates E[U_{i,j}] by direct simulation of the
// Appendix B experiment: each quantum transmits packetsPerQuantum packets
// on the layer; receiver t picks round(a_t/Λ · P) of them uniformly at
// random; a packet crosses the link if any receiver picked it. The
// estimate is the average crossing rate over quanta, scaled to layer
// units. It cross-checks ExpectedLinkRate.
func MonteCarloLinkRate(rates []float64, layerRate float64, packetsPerQuantum, quanta int, rng *rand.Rand) float64 {
	if packetsPerQuantum <= 0 || quanta <= 0 {
		panic("redundancy: non-positive Monte Carlo size")
	}
	picked := make([]bool, packetsPerQuantum)
	perm := make([]int, packetsPerQuantum)
	for i := range perm {
		perm[i] = i
	}
	total := 0
	for q := 0; q < quanta; q++ {
		for i := range picked {
			picked[i] = false
		}
		for _, a := range rates {
			need := int(math.Round(a / layerRate * float64(packetsPerQuantum)))
			// Partial Fisher-Yates: choose 'need' distinct packets.
			for i := 0; i < need; i++ {
				j := i + rng.IntN(packetsPerQuantum-i)
				perm[i], perm[j] = perm[j], perm[i]
				picked[perm[i]] = true
			}
		}
		for _, p := range picked {
			if p {
				total++
			}
		}
	}
	return layerRate * float64(total) / float64(packetsPerQuantum*quanta)
}

// LayerDemands splits a receiver's aggregate rate greedily across a
// cumulative layer scheme: full lower layers, a partial top layer. It is
// the technical report's Appendix E receiver model.
func LayerDemands(rate float64, layerRates []float64) []float64 {
	d := make([]float64, len(layerRates))
	remaining := rate
	for l, lr := range layerRates {
		take := math.Min(remaining, lr)
		if take < 0 {
			take = 0
		}
		d[l] = take
		remaining -= take
	}
	return d
}

// MultiLayerExpectedLinkRate returns the expected total link usage when
// receivers with the given aggregate rates subscribe greedily to a
// multi-layer scheme (layerRates are per-layer, not cumulative) and pick
// packets at random within each partially-used layer. A layer fully
// demanded by some receiver is fully used (deterministically).
func MultiLayerExpectedLinkRate(rates []float64, layerRates []float64) float64 {
	total := 0.0
	for l, lr := range layerRates {
		perLayer := make([]float64, len(rates))
		for t, a := range rates {
			perLayer[t] = LayerDemands(a, layerRates)[l]
		}
		if lr > 0 {
			total += ExpectedLinkRate(perLayer, lr)
		}
	}
	return total
}

// MultiLayer returns the redundancy of a multi-layer random-join scheme.
func MultiLayer(rates []float64, layerRates []float64) float64 {
	m := maxRate(rates)
	if m == 0 {
		panic("redundancy: undefined for all-zero rates")
	}
	return MultiLayerExpectedLinkRate(rates, layerRates) / m
}

// ConstrainedFairRate is the Section 3.1 scenario: n sessions constrained
// by one link of capacity c, m of them multi-rate with redundancy v and
// the rest efficient. All receivers' max-min fair rates are
//
//	c / ((n-m) + m·v)
func ConstrainedFairRate(c float64, n, m int, v float64) float64 {
	if n <= 0 || m < 0 || m > n {
		panic("redundancy: need 0 <= m <= n, n > 0")
	}
	if v < 1 {
		panic("redundancy: redundancy below 1")
	}
	return c / (float64(n-m) + float64(m)*v)
}

// NormalizedFairRate is ConstrainedFairRate normalized by the efficient
// fair share c/n, as plotted in Figure 6:
//
//	1 / ((1-β) + β·v),  β = m/n
func NormalizedFairRate(beta, v float64) float64 {
	if beta < 0 || beta > 1 {
		panic("redundancy: β must be in [0,1]")
	}
	if v < 1 {
		panic("redundancy: redundancy below 1")
	}
	return 1 / ((1 - beta) + beta*v)
}

// OfAllocation measures Definition 3 on an allocation: session i's
// redundancy on link j, u_{i,j} / max downstream rate. The second return
// is false when the session has no receiver on the link or all downstream
// rates are zero.
func OfAllocation(a *netmodel.Allocation, i, j int) (float64, bool) {
	var rates []float64
	for _, sr := range a.Network().OnLink(j) {
		if sr.Session != i {
			continue
		}
		for k := range sr.All() {
			rates = append(rates, a.Rate(i, k))
		}
	}
	m := maxRate(rates)
	if len(rates) == 0 || m == 0 {
		return 0, false
	}
	return a.SessionLinkRate(i, j) / m, true
}
