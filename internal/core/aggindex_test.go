package core

import "testing"

// BenchmarkRefreshAggIndex times the crypto-index refresh a one-record
// update costs a shard: on a 1,026-entry slice (the benchmark's K = 4
// shard), the five entries ApplyOps reports for three re-signed records,
// widened to their neighbours — seven leaves of both product trees.
func BenchmarkRefreshAggIndex(b *testing.B) {
	h, sr := uniformFixture(b, 1024)
	if err := sr.BuildAggIndex(h, signKey(b).Public()); err != nil {
		b.Fatal(err)
	}
	mid := len(sr.Recs) / 2
	touched := []int{mid - 2, mid - 1, mid, mid + 1, mid + 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.RefreshAggIndex(touched)
	}
	b.StopTimer()
	if sr.AggIndex() == nil {
		b.Fatal("the refresh detached the index")
	}
}
