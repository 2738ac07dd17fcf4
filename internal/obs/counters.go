package obs

import (
	"expvar"
	"io"
	"sync"
)

// Counter declares one serving counter of a process, once: Key names it
// everywhere it is rendered ("queries" is vcqr_queries_total on /metrics
// and "queries" in the /metrics.json map), Help is its exposition help
// line, and Field locates it in the process's stats snapshot S. A table
// of these is the single place a counter is registered; the /metrics
// table, the /metrics.json map and the process expvar fold all range
// over it.
type Counter[S any] struct {
	Key, Help string
	Field     func(*S) *uint64
	// PromOnly keeps the counter out of the /metrics.json map.
	PromOnly bool
}

// WriteCounters renders the table's counters from st as Prometheus
// counter families, one series each under the given labels.
func WriteCounters[S any](w io.Writer, table []Counter[S], st *S, labels [][2]string) {
	for _, c := range table {
		WriteCounterFamily(w, "vcqr_"+c.Key+"_total", c.Help,
			[]CounterSeries{{Labels: labels, Value: float64(*c.Field(st))}})
	}
}

// ExportCounters adds the table's counters from st to an Export's flat
// counter map.
func ExportCounters[S any](into map[string]uint64, table []Counter[S], st *S) {
	for _, c := range table {
		if !c.PromOnly {
			into[c.Key] = *c.Field(st)
		}
	}
}

// SumCounters adds src's counters into dst, field by field.
func SumCounters[S any](table []Counter[S], dst, src *S) {
	for _, c := range table {
		*c.Field(dst) += *c.Field(src)
	}
}

// Aggregate is a process-wide expvar over every live member of one
// serving type (servers, coordinators). The expvar name is published
// once per process, on the first Add — expvar panics on duplicates — so
// tests may create as many members as they like.
type Aggregate[M comparable] struct {
	// Name is the expvar name; Fold renders the live members.
	Name string
	Fold func(live []M) any

	once    sync.Once
	mu      sync.Mutex
	members map[M]struct{}
}

// Add joins m to the aggregate.
func (a *Aggregate[M]) Add(m M) {
	a.once.Do(func() {
		a.members = map[M]struct{}{}
		expvar.Publish(a.Name, expvar.Func(func() any {
			a.mu.Lock()
			defer a.mu.Unlock()
			live := make([]M, 0, len(a.members))
			for m := range a.members {
				live = append(live, m)
			}
			return a.Fold(live)
		}))
	})
	a.mu.Lock()
	a.members[m] = struct{}{}
	a.mu.Unlock()
}

// Remove drops m from the aggregate.
func (a *Aggregate[M]) Remove(m M) {
	a.mu.Lock()
	delete(a.members, m)
	a.mu.Unlock()
}
