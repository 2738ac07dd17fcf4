package cache

import (
	"container/list"
	"sync"

	"vcqr/internal/hashx"
	"vcqr/internal/wire"
)

// DefaultBudget is the byte budget a cache peer runs with when the
// operator does not set one: enough for a few thousand typical chunked
// streams without threatening a small host.
const DefaultBudget int64 = 256 << 20

// Store is the tier's one entry table: a byte-budgeted LRU over opaque
// entries, each filed under an invalidation group (relation, shard) and
// stamped with the content epoch and digest its filler supplied. Every
// peer runs one, and so does the coordinator's Client as its near store.
// The store never inspects entry bytes — it is storage, not a verifier;
// the digest is stored and echoed verbatim so readers can catch
// corruption without trusting this process.
type Store struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	order  *list.List // front = most recently used; values are *storeEntry
	byKey  map[string]*list.Element
	groups map[groupID]map[string]*list.Element // group -> entry key -> element

	hits, misses, puts, evictions, invalidations uint64
}

type storeEntry struct {
	key      string
	group    groupID
	epoch    uint64
	sum      hashx.Digest
	bytes    []byte
	overhead int64
}

// entryOverhead approximates per-entry bookkeeping (key strings, map and
// list slots) charged against the budget so a flood of tiny entries
// cannot blow past it.
const entryOverhead = 256

// NewStore creates a store bounded to budget bytes (DefaultBudget when
// budget <= 0).
func NewStore(budget int64) *Store {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Store{
		budget: budget,
		order:  list.New(),
		byKey:  make(map[string]*list.Element),
		groups: make(map[groupID]map[string]*list.Element),
	}
}

// groupID names an invalidation group.
type groupID struct {
	relation string
	shard    int
}

// Get returns an entry's bytes and stored digest, promoting it to most
// recently used. The returned slice is shared — callers must not mutate
// it.
func (s *Store) Get(key string) ([]byte, hashx.Digest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		s.misses++
		return nil, nil, false
	}
	s.hits++
	s.order.MoveToFront(el)
	e := el.Value.(*storeEntry)
	return e.bytes, e.sum, true
}

// Put stores an entry, replacing any previous value under the same key,
// and evicts from the LRU tail until the budget holds. An entry bigger
// than the whole budget is refused.
func (s *Store) Put(key, relation string, shard int, epoch uint64, sum hashx.Digest, b []byte) bool {
	cost := int64(len(b)) + int64(len(key)) + entryOverhead
	s.mu.Lock()
	defer s.mu.Unlock()
	if cost > s.budget {
		return false
	}
	if el, ok := s.byKey[key]; ok {
		s.removeLocked(el)
	}
	e := &storeEntry{key: key, group: groupID{relation, shard}, epoch: epoch, sum: sum.Clone(), bytes: b, overhead: cost - int64(len(b))}
	el := s.order.PushFront(e)
	s.byKey[key] = el
	g := s.groups[e.group]
	if g == nil {
		g = make(map[string]*list.Element)
		s.groups[e.group] = g
	}
	g[key] = el
	s.bytes += cost
	s.puts++
	for s.bytes > s.budget {
		tail := s.order.Back()
		if tail == nil || tail == el {
			break
		}
		s.evictions++
		s.removeLocked(tail)
	}
	return true
}

// Invalidate drops entries per the wire.CacheGroup contract: key set
// drops exactly that entry; keep > 0 drops every entry of the (relation,
// shard) group filed at an epoch older than keep, and leaves those filed
// at keep or later; keep == 0 drops the whole group. Returns how many
// entries died.
func (s *Store) Invalidate(relation string, shard int, keep uint64, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	if key != "" {
		if el, ok := s.byKey[key]; ok {
			s.removeLocked(el)
			dropped = 1
		}
	} else {
		for _, el := range s.groups[groupID{relation, shard}] {
			if keep != 0 && el.Value.(*storeEntry).epoch >= keep {
				continue
			}
			s.removeLocked(el)
			dropped++
		}
	}
	s.invalidations += uint64(dropped)
	return dropped
}

func (s *Store) removeLocked(el *list.Element) {
	e := el.Value.(*storeEntry)
	s.order.Remove(el)
	delete(s.byKey, e.key)
	if g := s.groups[e.group]; g != nil {
		delete(g, e.key)
		if len(g) == 0 {
			delete(s.groups, e.group)
		}
	}
	s.bytes -= int64(len(e.bytes)) + e.overhead
}

// Keys lists every resident entry key in LRU order (most recent first) —
// an inspection seam for tests and tooling, not a hot-path API.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storeEntry).key)
	}
	return out
}

// Stats snapshots the store's counters in the wire's exchange shape.
func (s *Store) Stats() wire.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return wire.CacheStats{
		Entries:       len(s.byKey),
		Bytes:         s.bytes,
		Budget:        s.budget,
		Hits:          s.hits,
		Misses:        s.misses,
		Puts:          s.puts,
		Evictions:     s.evictions,
		Invalidations: s.invalidations,
	}
}
