package sharded

import (
	"testing"
	"unsafe"
)

// TestShardHeaderSize pins the shard header at two cache lines: the
// neighbouring shards' occupancy counters must never share a line (or
// the adjacent-line prefetcher's pair), so a field added or removed must
// come with a matching change to the tail pad.
func TestShardHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(shard{}); got != 128 {
		t.Fatalf("shard size = %d, want 128 (the tail pad in sharded.go is stale)", got)
	}
}
