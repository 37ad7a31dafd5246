// Package netmodel defines the network model of Rubenstein, Kurose and
// Towsley, "The Impact of Multicast Layering on Network Fairness"
// (SIGCOMM '99): a capacitated link graph, multicast sessions with a single
// sender and one or more receivers, per-receiver data-paths, and rate
// allocations.
//
// The model follows Table 1 of the paper:
//
//   - A network N = (G, {S_1..S_m}, τ, Γ) is a graph G with n links,
//     a set of sessions, a topology mapping τ of session members onto
//     graph nodes, and a type mapping Γ marking each session single-rate
//     or multi-rate.
//   - Each session S_i has one sender X_i, receivers r_{i,k}, and a
//     maximum desired rate κ_i (possibly +Inf).
//   - Each receiver has a data-path: the sequence of links carrying data
//     from X_i to r_{i,k}. R_{i,j} is the set of receivers of S_i whose
//     data-path traverses link l_j; R_j is the union over sessions.
//   - An allocation assigns a rate a_{i,k} to every receiver. Session S_i
//     consumes u_{i,j} = v_i({a_{i,k} : r_{i,k} ∈ R_{i,j}}) on link l_j,
//     where v_i is the session's link-rate (redundancy) function. The
//     efficient choice — and the paper's Section 2 assumption — is
//     v_i = max. Section 3 generalizes v_i to model layering redundancy.
//
// Networks can be built two ways:
//
//   - From an explicit graph with per-receiver routed paths (see
//     NewNetwork and the routing package), which models a real topology.
//   - From bare link/receiver incidence (see Builder), which is the
//     abstract form used throughout the paper's proofs: only the sets
//     R_{i,j} and capacities matter for fairness analysis.
//
// A Network stores data-paths run-length encoded. A run is a block of
// consecutive receivers of one session at the same host whose paths
// were handed in as the same slice (see Network.PathRun); it keeps one
// path per run and one run index per receiver. Each R_{i,j} is a list
// of ascending, disjoint, maximal receiver-index ranges
// (SessionReceivers), built run by run. A generator that parks many
// receivers behind one access point and aliases their path
// (topology.Planetary) therefore costs a few bytes per receiver, and
// every pass over data-paths costs O(runs × depth).
//
// All floating-point comparisons in this module tree go through the
// tolerance helpers in this package (Eq, Leq, Less) so that every package
// agrees on what "fully utilized" means.
package netmodel
