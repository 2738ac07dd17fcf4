// Package graphauth generalizes the completeness-verification scheme to
// directed acyclic graphs — the second future-work direction named in the
// paper's conclusion ("generalizing the proposed scheme for
// non-relational structures, e.g. directed acyclic graphs").
//
// The construction reduces graph queries to the relational machinery:
//
//   - a signed *node index*: the sorted list of node identifiers, so the
//     existence or absence of any node is verifiable;
//   - one signed *adjacency list per node*: the sorted successor ids, so
//     "the successors of u (in an id range)" is a completeness-verifiable
//     range query — including the empty answer.
//
// Because empty adjacency ranges are provable, *negative* facts become
// verifiable: a publisher can prove "u has no edge to any node in
// [a, b]", and by induction over verified frontiers, "v is not reachable
// from u within k hops" (VerifyUnreachable). That is exactly the
// completeness property lifted from tuples to edges.
package graphauth

import (
	"errors"
	"fmt"
	"sort"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	"vcqr/internal/verify"
)

// Relation naming inside the publisher.
const (
	nodesRelation = "graph/nodes"
	adjPrefix     = "graph/adj/"
)

// Errors.
var (
	ErrCycle  = errors.New("graphauth: graph has a cycle")
	ErrNode   = errors.New("graphauth: node id outside the open domain")
	ErrNoSuch = errors.New("graphauth: no such node")
	ErrDepth  = errors.New("graphauth: depth must be positive")
)

// adjName returns the relation name of node u's adjacency list.
func adjName(u uint64) string { return fmt.Sprintf("%s%d", adjPrefix, u) }

// nodeSchema and adjSchema are the derived relational schemas. Adjacency
// tuples have no non-key attributes: the successor id IS the key, and the
// row-id leaf alone feeds the per-record attribute tree.
func nodeSchema() relation.Schema {
	return relation.Schema{Name: nodesRelation, KeyName: "node"}
}
func adjSchema(u uint64) relation.Schema {
	return relation.Schema{Name: adjName(u), KeyName: "succ"}
}

// SignedDAG is the owner-produced authenticated graph.
type SignedDAG struct {
	Params core.Params
	// Nodes is the signed node index.
	Nodes *core.SignedRelation
	// Adj maps node id -> its signed adjacency list.
	Adj map[uint64]*core.SignedRelation
}

// Build signs a DAG given its adjacency map. Node ids must lie in the
// open interval (l, u); the graph must be acyclic (checked).
func Build(h *hashx.Hasher, key *sig.PrivateKey, adj map[uint64][]uint64, l, u, base uint64) (*SignedDAG, error) {
	p, err := core.NewParams(l, u, base)
	if err != nil {
		return nil, err
	}
	// Collect the node set: every source and every target.
	set := map[uint64]bool{}
	for v, succs := range adj {
		set[v] = true
		for _, s := range succs {
			set[s] = true
		}
	}
	ids := make([]uint64, 0, len(set))
	for v := range set {
		if v <= l || v >= u {
			return nil, fmt.Errorf("%w: %d", ErrNode, v)
		}
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if err := checkAcyclic(adj); err != nil {
		return nil, err
	}

	nodes, err := relation.New(nodeSchema(), l, u)
	if err != nil {
		return nil, err
	}
	for _, v := range ids {
		if _, err := nodes.Insert(relation.Tuple{Key: v}); err != nil {
			return nil, err
		}
	}
	signedNodes, err := core.Build(h, key, p, nodes)
	if err != nil {
		return nil, err
	}
	out := &SignedDAG{Params: p, Nodes: signedNodes, Adj: make(map[uint64]*core.SignedRelation, len(ids))}
	for _, v := range ids {
		list, err := relation.New(adjSchema(v), l, u)
		if err != nil {
			return nil, err
		}
		seen := map[uint64]bool{}
		for _, s := range adj[v] {
			if seen[s] {
				continue // parallel edges collapse
			}
			seen[s] = true
			if _, err := list.Insert(relation.Tuple{Key: s}); err != nil {
				return nil, err
			}
		}
		sr, err := core.Build(h, key, p, list)
		if err != nil {
			return nil, err
		}
		out.Adj[v] = sr
	}
	return out, nil
}

// checkAcyclic runs a colouring DFS.
func checkAcyclic(adj map[uint64][]uint64) error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := map[uint64]int{}
	var visit func(v uint64) error
	visit = func(v uint64) error {
		colour[v] = grey
		for _, s := range adj[v] {
			switch colour[s] {
			case grey:
				return fmt.Errorf("%w: back edge %d -> %d", ErrCycle, v, s)
			case white:
				if err := visit(s); err != nil {
					return err
				}
			}
		}
		colour[v] = black
		return nil
	}
	for v := range adj {
		if colour[v] == white {
			if err := visit(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Publisher hosts a signed DAG and answers graph queries with VOs.
type Publisher struct {
	pub  *engine.Publisher
	dag  *SignedDAG
	role accessctl.Role
}

// NewPublisher wraps a signed DAG. The graph model has no row-level
// access policy; a single all-access role is used throughout.
func NewPublisher(h *hashx.Hasher, pub *sig.PublicKey, dag *SignedDAG) (*Publisher, error) {
	role := accessctl.Role{Name: "all"}
	ep := engine.NewPublisher(h, pub, accessctl.NewPolicy(role))
	if err := ep.AddRelation(dag.Nodes, false); err != nil {
		return nil, err
	}
	for _, sr := range dag.Adj {
		if err := ep.AddRelation(sr, false); err != nil {
			return nil, err
		}
	}
	return &Publisher{pub: ep, dag: dag, role: role}, nil
}

// ChildrenResult is the verifiable answer to "successors of u in
// [lo, hi]": the node-existence proof for u plus the adjacency range
// result.
type ChildrenResult struct {
	U uint64
	// NodeProof proves u exists in the node index (point query [u, u]).
	NodeProof *engine.Result
	// Edges is the adjacency range result.
	Edges *engine.Result
}

// Children answers the successors-of-u query.
func (p *Publisher) Children(u, lo, hi uint64) (*ChildrenResult, error) {
	nodeQ := engine.Query{Relation: nodesRelation, KeyLo: u, KeyHi: u}
	nodeRes, err := p.pub.Execute("all", nodeQ)
	if err != nil {
		return nil, err
	}
	if _, ok := p.dag.Adj[u]; !ok {
		// u is not a node: the point proof (an empty result) is the
		// verifiable answer; there are no edges to query.
		return &ChildrenResult{U: u, NodeProof: nodeRes}, nil
	}
	edgeQ := engine.Query{Relation: adjName(u), KeyLo: lo, KeyHi: hi}
	edges, err := p.pub.Execute("all", edgeQ)
	if err != nil {
		return nil, err
	}
	return &ChildrenResult{U: u, NodeProof: nodeRes, Edges: edges}, nil
}

// Verifier checks graph query results.
type Verifier struct {
	h      *hashx.Hasher
	pub    *sig.PublicKey
	params core.Params
	role   accessctl.Role
}

// NewVerifier constructs a graph verifier from the owner's public data.
func NewVerifier(h *hashx.Hasher, pub *sig.PublicKey, params core.Params) *Verifier {
	return &Verifier{h: h, pub: pub, params: params, role: accessctl.Role{Name: "all"}}
}

// VerifyChildren checks a ChildrenResult and returns the verified
// successor ids. A nil slice with nil error means "u verifiably does not
// exist" — itself a complete answer.
func (v *Verifier) VerifyChildren(u, lo, hi uint64, res *ChildrenResult) (succs []uint64, exists bool, err error) {
	if res.U != u {
		return nil, false, fmt.Errorf("graphauth: result for node %d, asked %d", res.U, u)
	}
	nodeQ := engine.Query{Relation: nodesRelation, KeyLo: u, KeyHi: u}
	nv := verify.New(v.h, v.pub, v.params, nodeSchema())
	nodeRows, err := nv.VerifyResult(nodeQ, v.role, res.NodeProof)
	if err != nil {
		return nil, false, fmt.Errorf("graphauth: node proof: %w", err)
	}
	if len(nodeRows) == 0 {
		if res.Edges != nil {
			return nil, false, fmt.Errorf("graphauth: edges for a non-existent node")
		}
		return nil, false, nil
	}
	if res.Edges == nil {
		return nil, true, fmt.Errorf("graphauth: missing adjacency result for existing node %d", u)
	}
	edgeQ := engine.Query{Relation: adjName(u), KeyLo: lo, KeyHi: hi}
	ev := verify.New(v.h, v.pub, v.params, adjSchema(u))
	rows, err := ev.VerifyResult(edgeQ, v.role, res.Edges)
	if err != nil {
		return nil, true, fmt.Errorf("graphauth: adjacency proof: %w", err)
	}
	out := make([]uint64, len(rows))
	for i, r := range rows {
		out[i] = r.Key
	}
	return out, true, nil
}

// ReachResult is a verified bounded-depth reachability answer: the
// frontier expansions, each individually verifiable.
type ReachResult struct {
	From, To uint64
	Depth    int
	// Layers holds, per hop, the ChildrenResult for every node expanded
	// at that hop (full-range adjacency queries).
	Layers []map[uint64]*ChildrenResult
	// Found is the publisher's claim; verification recomputes it.
	Found bool
}

// Reachable answers "is `to` reachable from `from` within depth hops?"
// with a proof either way: each frontier expansion is a verifiable
// full-range children query, so omitted edges are detectable and the
// negative answer is as trustworthy as the positive one.
func (p *Publisher) Reachable(from, to uint64, depth int) (*ReachResult, error) {
	if depth <= 0 {
		return nil, ErrDepth
	}
	res := &ReachResult{From: from, To: to, Depth: depth}
	frontier := []uint64{from}
	visited := map[uint64]bool{from: true}
	for d := 0; d < depth && len(frontier) > 0 && !res.Found; d++ {
		layer := make(map[uint64]*ChildrenResult, len(frontier))
		var next []uint64
		for _, u := range frontier {
			cr, err := p.Children(u, p.dag.Params.L+1, p.dag.Params.U-1)
			if err != nil {
				return nil, err
			}
			layer[u] = cr
			if cr.Edges == nil {
				continue
			}
			for _, row := range cr.Edges.Rows() {
				if row.Key == to {
					res.Found = true
				}
				if !visited[row.Key] {
					visited[row.Key] = true
					next = append(next, row.Key)
				}
			}
		}
		res.Layers = append(res.Layers, layer)
		frontier = next
	}
	return res, nil
}

// VerifyReachable re-runs the BFS over the *verified* edges and checks
// the claim. It returns the verified answer.
func (v *Verifier) VerifyReachable(res *ReachResult) (bool, error) {
	if res.Depth <= 0 || len(res.Layers) > res.Depth {
		return false, fmt.Errorf("graphauth: malformed layers")
	}
	lo, hi := v.params.L+1, v.params.U-1
	frontier := []uint64{res.From}
	visited := map[uint64]bool{res.From: true}
	found := false
	for d := 0; d < res.Depth && len(frontier) > 0 && !found; d++ {
		if d >= len(res.Layers) {
			return false, fmt.Errorf("graphauth: missing layer %d with a non-empty frontier", d)
		}
		layer := res.Layers[d]
		var next []uint64
		for _, u := range frontier {
			cr, ok := layer[u]
			if !ok {
				return false, fmt.Errorf("graphauth: layer %d missing expansion of node %d", d, u)
			}
			succs, exists, err := v.VerifyChildren(u, lo, hi, cr)
			if err != nil {
				return false, err
			}
			if !exists {
				continue // verifiably a sink that is not even a node
			}
			for _, s := range succs {
				if s == res.To {
					found = true
				}
				if !visited[s] {
					visited[s] = true
					next = append(next, s)
				}
			}
		}
		frontier = next
	}
	if found != res.Found {
		return false, fmt.Errorf("graphauth: publisher claimed found=%v, verified %v", res.Found, found)
	}
	return found, nil
}
