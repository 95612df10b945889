// Package protocols is the registry of protocols the tools verify by name:
// the classic snooping cache coherence protocols verified by Pong and
// Dubois (SPAA 1993) and by their companion technical report (USC
// CENG-92-20): the Illinois protocol of Section 2.3 of the paper, and the
// remaining protocols of Archibald and Baer's survey ("Cache Coherence
// Protocols: Evaluation Using a Multiprocessor Simulation Model", ACM TOCS
// 4(4), 1986): Write-Once, Synapse, Berkeley, Firefly, and Dragon; plus MSI,
// MESI, MOESI, MESIF and Lock-MSI.
//
// Each built-in's only definition is its ccpsl file in specs/, embedded
// into the binary and parsed once at package init; the file name is the
// protocol's canonical registry name. The resulting *fsm.Protocol drives
// the symbolic composite-state verifier (internal/symbolic), the
// explicit-state enumerators (internal/enum) and the concrete
// multiprocessor simulator (internal/sim), so there is a single source of
// truth for the protocol's behavior. Synthetic is the one family defined in
// Go, because it is parametric.
//
// State-naming follows the paper: Invalid subsumes both "not present" and
// "invalidated" (Section 2.1). Every lookup returns a fresh, validated
// instance; use All or ByName to enumerate, Register or LoadDir to add.
package protocols
