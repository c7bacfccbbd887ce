// Package graph implements the undirected-graph substrate for the
// OnionBots topology experiments: a mutable adjacency structure, a random
// k-regular generator (the paper's Section V workload), and the metrics
// reported in Figures 4-6 — closeness centrality, degree centrality,
// diameter, and connected components.
//
// Mutation (AddEdge/RemoveNode/...) happens on Graph. Measurement happens
// on an Indexed snapshot: a compressed adjacency form with dense integer
// ids that makes repeated BFS cheap. Experiments mutate, snapshot,
// measure, and repeat. Two exceptions to the snapshot rule keep hot
// loops allocation-free: Graph.Connected answers "still one component?"
// straight off the adjacency rows (the Fig 6 partition scan asks it
// after every deletion batch), and AppendNeighbors is the scratch-buffer
// form of Neighbors for per-step repair scans. All BFS helpers mark
// visited nodes by stamping a reusable slice with the sweep's generation
// number, so starting a sweep is a counter bump rather than a reset or
// an allocation.
//
// Storage and ids: Graph indexes its storage by node id. Each node's
// neighbors are a strictly ascending []int32 row, and a []bool marks
// which ids are live, so ids must be dense and non-negative — AddNode
// panics on a negative id, and memory is O(largest id ever added).
// Every producer in this repository (the generators, the Fig 3 graph,
// the botnet and SOAP overlay views, churn's fresh ids) numbers nodes
// from 0 upward. Gaps left by removed nodes cost one empty row each.
//
// Determinism: rows are kept sorted under every mutation, so Nodes,
// Neighbors, RemoveNode and Snapshot rows come out in ascending id order
// without a sort, and callers that combine them with a seeded RNG get
// reproducible runs.
package graph
