// Shard addressing for the task substrate.
//
// Two complementary mappings place work on a shard group of n task
// databases:
//
//   - Submits are routed by key (conventionally the task payload, which
//     the workload derives from the flow/parameter set) through a
//     consistent-hash ring: n shards × ringVirtualNodes points on a
//     64-bit circle, so adding a shard moves ~1/n of the keyspace.
//     Every router and every server builds the identical ring from the
//     shard count alone, which is what makes the wrong_shard redirect
//     check possible server-side.
//
//   - Task IDs are allocated in shard-strided sequences: shard i of n
//     assigns IDs i+1, i+1+n, i+1+2n, … so any party can recover the
//     owning shard of an existing task from its ID alone —
//     ShardOfTask(id, n) == (id-1) mod n — with no directory service.
//     Resolutions (complete/fail/finish_batch) and result polls route
//     this way.
package emews

import (
	"fmt"
	"sort"
)

// ringVirtualNodes is the number of points each shard contributes to the
// hash ring. 64 keeps the per-shard keyspace imbalance within a few
// percent while the ring stays small enough to rebuild at every Dial.
const ringVirtualNodes = 64

// Ring is a consistent-hash ring over a fixed shard count. It is
// deterministic: every Ring built for the same count maps every key to
// the same shard, on clients and servers alike. A Ring is immutable and
// safe for concurrent use.
type Ring struct {
	count  int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// ringHash hashes a routing key (or virtual-node label) onto the ring's
// 64-bit circle: fnv-1a over the key's bytes, in place (hash/fnv's New64a
// values without copying the key), then a splitmix64-style avalanche
// finalizer. The finalizer matters: raw fnv-1a leaves similar
// fixed-width keys ("params-000", "params-001", …) clustered in one arc
// of the circle, which can dump an entire workload onto one shard.
func ringHash(key string) uint64 {
	x := uint64(14695981039346656037) // fnv-1a 64-bit offset basis
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= 1099511628211 // fnv-1a 64-bit prime
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds the canonical ring for a shard group of the given size.
func NewRing(count int) *Ring {
	if count < 1 {
		count = 1
	}
	r := &Ring{count: count}
	if count == 1 {
		return r
	}
	r.points = make([]ringPoint, 0, count*ringVirtualNodes)
	for shard := 0; shard < count; shard++ {
		for v := 0; v < ringVirtualNodes; v++ {
			label := fmt.Sprintf("osprey-shard-%d-%d", shard, v)
			r.points = append(r.points, ringPoint{hash: ringHash(label), shard: shard})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Shards returns the shard count the ring was built for.
func (r *Ring) Shards() int { return r.count }

// Lookup maps a routing key to its owning shard: the first ring point at
// or after the key's hash, wrapping around the circle.
func (r *Ring) Lookup(key string) int {
	if r.count == 1 || len(r.points) == 0 {
		return 0
	}
	kh := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// ShardOfTask recovers the owning shard of a task from its strided ID.
func ShardOfTask(id int64, count int) int {
	if count <= 1 || id < 1 {
		return 0
	}
	return int((id - 1) % int64(count))
}
