// Package shard partitions a knowledge-graph Q&A deployment into N
// writer shards behind a fan-out/merge router (DESIGN.md §14).
//
// The unit of partitioning is the document (answer) space: a deterministic
// seeded hash assigns every document ID to exactly one shard, and the
// assignment is persisted in a CRC-framed shard-map file so that every
// process in the cluster — shard writers, their read replicas, and the
// router — provably agrees on ownership. Each shard holds the full entity
// graph (vote solves re-weight shared entity edges, so slicing the graph
// itself would make per-shard scores incomparable) but serves and accepts
// votes only for the documents it owns; after each flush the owner pushes
// its applied absolute weight set to its peers (push.go), which apply it
// solver-free, keeping every shard's graph convergent with the
// single-process oracle.
//
// The package provides the shard map (this file), the binary snapshot and
// map codecs (codec.go), deterministic ranked-list merging (merge.go), the
// stateless fan-out/merge router (router.go), the peer weight-set pusher
// (push.go), and the replica snapshot follower (follow.go).
package shard

import (
	"fmt"
	"os"
	"strings"
)

// Map is the cluster's document→shard assignment. It is immutable after
// construction; every process loads the same map file and therefore
// computes identical ownership.
type Map struct {
	// Shards is the number of writer shards (>= 1).
	Shards int
	// Seed perturbs the assignment hash so re-sharding with the same
	// shard count still produces a fresh placement.
	Seed uint64
}

// NewMap returns a map over n shards with the given hash seed.
func NewMap(n int, seed uint64) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: map needs at least 1 shard, got %d", n)
	}
	return &Map{Shards: n, Seed: seed}, nil
}

// fnv64a constants (hash/fnv is not used directly to keep the hash's
// byte-level definition pinned in this file: the assignment is part of the
// on-disk contract and must never drift).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Owner returns the shard index that owns document doc. The hash folds
// the map seed and the document ID little-endian byte by byte, so the
// assignment is deterministic across processes, architectures, and Go
// versions.
func (m *Map) Owner(doc int) int {
	h := uint64(fnvOffset)
	x := m.Seed
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	d := uint64(int64(doc))
	for i := 0; i < 8; i++ {
		h = (h ^ (d & 0xff)) * fnvPrime
		d >>= 8
	}
	return int(h % uint64(m.Shards))
}

// Owns reports whether shard index owns document doc.
func (m *Map) Owns(index, doc int) bool { return m.Owner(doc) == index }

// WriteFile persists the map atomically (temp file + rename) in the
// CRC-framed binary format described in codec.go.
func (m *Map) WriteFile(path string) error {
	b, err := m.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadFile reads and verifies a shard-map file.
func LoadFile(path string) (*Map, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeMap(b)
	if err != nil {
		return nil, fmt.Errorf("shard: map file %s: %w", path, err)
	}
	return m, nil
}

// baseURL normalises a process address to the base URL request paths are
// appended to: a scheme-less host:port gets http://, and trailing slashes
// go, since a POST to http://h:p//v1/weights is answered with a redirect
// that the client follows as a GET.
func baseURL(addr string) string {
	addr = strings.TrimRight(addr, "/")
	if !strings.Contains(addr, "://") {
		return "http://" + addr
	}
	return addr
}
