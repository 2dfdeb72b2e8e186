package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kgvote/internal/core"
	"kgvote/internal/shard"
)

func TestLoadOrBuildCorpusFile(t *testing.T) {
	dir := t.TempDir()
	corpusPath := filepath.Join(dir, "c.json")
	if err := os.WriteFile(corpusPath, []byte(`{"Docs":[{"ID":1,"Entities":{"a":1,"b":1}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := loadOrBuild(corpusPath, 0, 0, core.Options{K: 2, L: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Corpus.Docs) != 1 {
		t.Errorf("docs = %d", len(sys.Corpus.Docs))
	}
	if _, err := loadOrBuild(filepath.Join(dir, "missing.json"), 0, 0, core.Options{}); err == nil {
		t.Errorf("missing corpus should fail")
	}
	// No corpus path: builds a synthetic corpus of the requested size.
	sys, err = loadOrBuild("", 20, 1, core.Options{K: 5, L: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Corpus.Docs) != 20 {
		t.Errorf("synthetic docs = %d, want 20", len(sys.Corpus.Docs))
	}
}

// TestServeRejectsBadFlags checks that every invalid flag combination is
// refused before serve builds a corpus or binds a listener.
func TestServeRejectsBadFlags(t *testing.T) {
	mapPath := filepath.Join(t.TempDir(), "two.map")
	m, err := shard.NewMap(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(mapPath); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*config)
		want string
	}{
		{"tenants with shard map", func(c *config) { c.tenants, c.shardMap = "acme", mapPath }, "-tenants excludes"},
		{"tenants with peers", func(c *config) { c.tenants, c.peers = "acme", "h:1" }, "-tenants excludes"},
		{"tenants with follow", func(c *config) { c.tenants, c.follow = "acme", "h:1" }, "-tenants excludes"},
		{"reserved tenant id", func(c *config) { c.tenants = "acme,admin" }, "invalid tenant id"},
		{"malformed tenant id", func(c *config) { c.tenants = "Acme" }, "invalid tenant id"},
		{"follow without shard map", func(c *config) { c.follow = "h:1" }, "-follow requires -shard-map"},
		{"follow with data dir", func(c *config) { c.follow, c.shardMap, c.dataDir = "h:1", mapPath, t.TempDir() }, "excludes -data-dir"},
		{"follow with peers", func(c *config) { c.follow, c.shardMap, c.peers = "h:1", mapPath, "h:2" }, "excludes -data-dir and -peers"},
		{"peers without shard map", func(c *config) { c.peers = "h:1" }, "-peers requires -shard-map"},
		{"unknown solver", func(c *config) { c.solverName = "annealing" }, "unknown solver"},
		{"shard index out of range", func(c *config) { c.shardMap, c.shardIndex = mapPath, 2 }, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// An unbindable address: a case that slipped past validation
			// fails on listen instead of serving, and its error misses want.
			cfg := config{addr: "127.0.0.1:-1", solverName: "multi", docs: 4, k: 2, l: 2, batch: 1}
			tc.edit(&cfg)
			err := serve(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("serve = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
