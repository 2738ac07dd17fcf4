// Command vcsign is the owner-side tool of the Figure 3 deployment: it
// generates a fresh signing key, signs a relation, and writes two
// artifacts:
//
//   - a publication file (-out) for publishers — contains no secrets,
//     only tuples, digests and signatures; it is a K-way range partition
//     of the relation, one shard unless -shards K says otherwise (the
//     signatures are identical either way: partitioning never touches
//     the chain);
//   - a client-parameters file (-params) for users — the public key,
//     domain parameters, schema, role definitions, and the partition
//     layout when sharded, to be distributed over an authenticated
//     channel.
//
// The private key is used once and discarded; re-run vcsign to publish a
// new version. Serve the publication with:
//
//	vcsign -n 1000 -out emp.vcqr -params params.vcqr
//	vcserve -load emp.vcqr -params params.vcqr
//
// Sharded publication for a partitioned publisher:
//
//	vcsign -n 1000 -shards 4 -out emp.vcqr -params params.vcqr
package main

import (
	"flag"
	"log"
	"os"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/owner"
	"vcqr/internal/partition"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

func main() {
	n := flag.Int("n", 500, "number of employee records to generate")
	seed := flag.Int64("seed", 1, "workload seed")
	base := flag.Uint64("base", core.DefaultBase, "chain number base B")
	shards := flag.Int("shards", 1, "range-partition the publication into this many shards")
	out := flag.String("out", "relation.vcqr", "publication file for publishers")
	paramsPath := flag.String("params", "params.vcqr", "client parameters file for users")
	flag.Parse()

	h := hashx.New()
	o, err := owner.New(h, 0)
	if err != nil {
		log.Fatal(err)
	}
	rel, err := workload.Employees(workload.EmployeeConfig{
		N: *n, L: 0, U: 1 << 32, PhotoSize: 64, HiddenPct: 10, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("signing %d records at base %d...", rel.Len(), *base)
	sr, err := o.Publish(rel, *base)
	if err != nil {
		log.Fatal(err)
	}

	cp := wire.ClientParams{
		N: o.PublicKey().N, E: o.PublicKey().E,
		Params: sr.Params, Schema: sr.Schema,
		Roles: map[string]accessctl.Role{
			"manager": {Name: "manager"},
			"exec":    {Name: "exec", KeyHi: 1 << 30},
			"clerk":   {Name: "clerk", VisibilityCol: "vis_clerk"},
		},
	}

	set, err := partition.Split(sr, *shards)
	if err != nil {
		log.Fatal(err)
	}
	if *shards > 1 {
		cp.Partition = &set.Spec
		log.Printf("partitioned into %d shards at cuts %v", set.Spec.K(), set.Spec.Cuts[1:len(set.Spec.Cuts)-1])
	}
	blob, err := wire.EncodePublication(set)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("publication: %s (%d bytes, %d signatures)", *out, len(blob), o.SignOps())

	if err := wire.WriteClientParams(*paramsPath, cp); err != nil {
		log.Fatal(err)
	}
	log.Printf("client parameters: %s", *paramsPath)
}
