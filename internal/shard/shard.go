// Package shard plans the scale-out execution of a sweep: a
// deterministic assignment of sweep-point indices to replicas and an
// HTTP fan-out client for dispatching a replica's share to a peer.
//
// The contract the serving layer depends on: for a fixed point count
// and replica count the assignment is a pure function (stable across
// processes, restarts, and replicas — every replica computes the same
// plan without coordination) and the shards partition the index space
// exactly. The caller records each point by its plan index, so the
// sharded sweep reproduces the single-process result byte for byte
// regardless of shard count or completion order. Simulation
// determinism supplies identical point values; this package supplies
// identical placement.
package shard

// Assignment maps point indices 0..Points-1 onto Replicas shards.
type Assignment struct {
	Points   int
	Replicas int
}

// Plan distributes points over replicas round-robin by index: point i
// belongs to replica i mod replicas. Round-robin keeps shard sizes
// within one of each other and keeps the mapping stable under the one
// change that happens in practice — appending values to a sweep —
// without any reshuffling of earlier points.
func Plan(points, replicas int) Assignment {
	if replicas < 1 {
		replicas = 1
	}
	if points < 0 {
		points = 0
	}
	if replicas > points && points > 0 {
		replicas = points // no empty shards
	}
	return Assignment{Points: points, Replicas: replicas}
}

// Owner returns the replica that owns point index i.
func (a Assignment) Owner(i int) int {
	if a.Replicas < 1 {
		return 0
	}
	return i % a.Replicas
}

// Shard returns the point indices owned by replica r, in increasing
// order.
func (a Assignment) Shard(r int) []int {
	var out []int
	for i := r; i < a.Points; i += a.Replicas {
		out = append(out, i)
	}
	return out
}
