package main

import (
	"math"
	"math/rand"

	"vcqr/internal/relation"
)

// stockSchema models the introduction's financial-information-provider
// scenario: historical prices keyed by timestamp.
func stockSchema() relation.Schema {
	return relation.Schema{
		Name:    "Prices",
		KeyName: "Time",
		Cols: []relation.Column{
			{Name: "Symbol", Type: relation.TypeString},
			{Name: "Price", Type: relation.TypeFloat},
			{Name: "Volume", Type: relation.TypeInt},
		},
	}
}

// stocks generates a price-history relation over [l, u) timestamps.
func stocks(n int, l, u uint64, symbols []string, seed int64) (*relation.Relation, error) {
	if len(symbols) == 0 {
		symbols = []string{"ACME", "GLOBEX", "INITECH"}
	}
	rel, err := relation.New(stockSchema(), l, u)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	price := 100.0
	for i := 0; i < n; i++ {
		ts := uint64(rng.Int63n(int64(u-l-1))) + l + 1
		price *= 1 + (rng.Float64()-0.5)/50
		if _, err := rel.Insert(relation.Tuple{Key: ts, Attrs: []relation.Value{
			relation.StringVal(symbols[rng.Intn(len(symbols))]),
			relation.FloatVal(math.Round(price*100) / 100),
			relation.IntVal(int64(rng.Intn(100000))),
		}}); err != nil {
			return nil, err
		}
	}
	return rel, nil
}
