package protocol

import "math/bits"

// SignalLevel returns the Coordinated discipline's nested signal level
// for the n-th signal (n >= 1), capped at maxLevel: 1 + trailing zeros
// of n. Signals inviting a join from level v then occur every 2^(v-1)
// base periods, so a receiver at level v (receiving 2^(v-1) packets per
// time unit) sees an expected 2^(2(v-1)) packets between its join
// opportunities — the paper's parameter.
//
// netsim's global signal clock drives every Coordinated session on this
// schedule.
func SignalLevel(n int, maxLevel int) int {
	if n < 1 {
		panic("protocol: signal index starts at 1")
	}
	l := 1 + bits.TrailingZeros(uint(n))
	if l > maxLevel {
		return maxLevel
	}
	return l
}
