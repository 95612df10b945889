// Package graph builds the global transition diagrams of the paper over a
// protocol's essential composite states (Figure 4), the per-cache local
// transition diagram (Figure 1) and the concrete diagram read off an enum
// run's reachable configurations, and exports them to Graphviz DOT.
//
// The global diagram is computed in a second pass after the symbolic
// expansion: every essential state is expanded one step and each raw
// successor is mapped to the essential state that contains it (the mapping
// exists by Theorem 1). Edges carry the paper's labels: the operation
// (R/W/Z), the originating cache's state class as a subscript, and the
// N-step superscript where one edge stands for an arbitrary number of
// repetitions of the same event (rule 4 of Section 3.2.3). An edge is
// annotated N-step when the symbolic engine derived it from a copy-count
// downgrade branch, or when it is absorbing (re-applying the event at the
// target is a self-loop), which recovers the annotations of Figure 4 and
// Appendix A.2.
package graph
