// Package vcqr is a from-scratch Go implementation of Pang, Jain,
// Ramamritham and Tan, "Verifying Completeness of Relational Query
// Results in Data Publishing" (SIGMOD 2005): chained record signatures
// with iterated-hash boundary proofs that let users of an untrusted
// publisher verify that relational query results are complete and
// authentic without disclosing anything beyond their access rights.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory): the serving tree, and internal/paper/ for the code that
// reproduces the paper's evaluation and serves no request. examples/
// holds runnable end-to-end scenarios, bench_test.go regenerates the
// paper's evaluation as Go benchmarks, and bench/ is the one benchmark
// of the serving system.
package vcqr
