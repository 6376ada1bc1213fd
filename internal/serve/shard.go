package serve

import (
	"runtime"
	"sync"

	"repro/internal/model"
)

// shard is one lock stripe over the engine's dense per-user store
// (Engine.users): user u's history is guarded by the shard shardIndex(u)
// picks. Reads (Recommend) take RLock; feedback application takes Lock.
// Users hash to shards by ID, so unrelated users rarely contend on the
// same mutex.
type shard struct {
	mu sync.RWMutex
	_  [40]byte // pad toward a cache line to curb false sharing between shards
}

// shardCount returns the engine's shard count: the next power of two at
// or above GOMAXPROCS, so the hash mask is a single AND and every P can
// in principle own a shard.
func shardCount(requested int) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardIndex hashes a user ID onto a shard. IDs are dense small
// integers, so a multiplicative hash (Fibonacci hashing) spreads
// consecutive IDs across shards instead of clustering them.
func shardIndex(u model.UserID, mask uint32) uint32 {
	h := uint32(u) * 2654435769 // 2^32 / φ
	return (h >> 16) & mask
}
