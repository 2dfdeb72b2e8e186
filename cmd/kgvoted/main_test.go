package main

import (
	"os"
	"path/filepath"
	"testing"

	"kgvote/internal/core"
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
