package main

import (
	"testing"
)

func TestStocks(t *testing.T) {
	rel, err := stocks(200, 0, 1<<30, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 200 {
		t.Fatalf("Len = %d", rel.Len())
	}
	if err := rel.Validate(); err != nil {
		t.Fatal(err)
	}
}
