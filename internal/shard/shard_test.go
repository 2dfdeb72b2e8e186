package shard

import (
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kgvote/api"
	"kgvote/internal/core"
)

func TestOwnerDeterministicAndTotal(t *testing.T) {
	m, err := NewMap(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := NewMap(4, 1)
	for doc := 0; doc < 1000; doc++ {
		o := m.Owner(doc)
		if o < 0 || o >= 4 {
			t.Fatalf("doc %d: owner %d out of range", doc, o)
		}
		if o2 := m2.Owner(doc); o2 != o {
			t.Fatalf("doc %d: owner differs across identical maps: %d vs %d", doc, o, o2)
		}
		if !m.Owns(o, doc) {
			t.Fatalf("doc %d: Owns(%d) false for its owner", doc, o)
		}
	}
}

func TestOwnerDistribution(t *testing.T) {
	const docs = 256
	for _, n := range []int{2, 3, 4, 8} {
		m, err := NewMap(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		for doc := 0; doc < docs; doc++ {
			counts[m.Owner(doc)]++
		}
		for i, c := range counts {
			if c == 0 {
				t.Fatalf("n=%d: shard %d owns no documents out of %d", n, i, docs)
			}
		}
	}
}

func TestOwnerSeedChangesAssignment(t *testing.T) {
	a, _ := NewMap(4, 1)
	b, _ := NewMap(4, 99)
	same := 0
	for doc := 0; doc < 256; doc++ {
		if a.Owner(doc) == b.Owner(doc) {
			same++
		}
	}
	if same == 256 {
		t.Fatal("different seeds produced identical assignments")
	}
}

func TestMapFileRoundtrip(t *testing.T) {
	m, err := NewMap(5, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.map")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 5 || got.Seed != 42 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if got.Checksum() != m.Checksum() {
		t.Fatalf("checksum mismatch: %08x vs %08x", got.Checksum(), m.Checksum())
	}
}

func TestMapDecodeRejectsCorruption(t *testing.T) {
	m, _ := NewMap(3, 7)
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMap(enc); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := DecodeMap(bad); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	if _, err := DecodeMap(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	ws := []core.WeightChange{
		{From: 0, To: 3, Weight: 0.25},
		{From: 1, To: 4, Weight: 1.0 / 3.0},
		{From: 2, To: 5, Weight: math.Nextafter(0.5, 1)},
	}
	frame := EncodeSnapshot(17, ws)
	epoch, got, err := DecodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 17 {
		t.Fatalf("epoch %d, want 17", epoch)
	}
	if len(got) != len(ws) {
		t.Fatalf("%d edges, want %d", len(got), len(ws))
	}
	for i := range ws {
		if got[i] != ws[i] {
			t.Fatalf("edge %d: %+v vs %+v", i, got[i], ws[i])
		}
		if math.Float64bits(got[i].Weight) != math.Float64bits(ws[i].Weight) {
			t.Fatalf("edge %d: weight bits differ", i)
		}
	}
	// Empty sets are valid (an empty flush still ships the epoch).
	epoch, got, err = DecodeSnapshot(EncodeSnapshot(3, nil))
	if err != nil || epoch != 3 || len(got) != 0 {
		t.Fatalf("empty snapshot roundtrip: epoch=%d n=%d err=%v", epoch, len(got), err)
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	frame := EncodeSnapshot(9, []core.WeightChange{{From: 1, To: 2, Weight: 0.5}})
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x10
		if _, _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	if _, _, err := DecodeSnapshot(frame[:8]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := DecodeMap(frame); err == nil {
		t.Fatal("snapshot frame accepted as a map")
	}
}

func TestMergeTopK(t *testing.T) {
	lists := [][]api.AskResult{
		{{Doc: 4, Score: 0.9}, {Doc: 0, Score: 0.5}},
		{{Doc: 1, Score: 0.9}, {Doc: 3, Score: 0.7}},
		{{Doc: 2, Score: 0.5}},
	}
	got := MergeTopK(lists, 4)
	wantDocs := []int{1, 4, 3, 0} // 0.9 tie broken by doc asc; 0.5 tie: doc 0 beats doc 2
	if len(got) != 4 {
		t.Fatalf("got %d results, want 4", len(got))
	}
	for i, d := range wantDocs {
		if got[i].Doc != d {
			t.Fatalf("pos %d: doc %d, want %d (merged %+v)", i, got[i].Doc, d, got)
		}
	}
	if all := MergeTopK(lists, 0); len(all) != 5 {
		t.Fatalf("k=0 kept %d results, want all 5", len(all))
	}
	if none := MergeTopK(nil, 3); len(none) != 0 {
		t.Fatalf("empty merge returned %d results", len(none))
	}
}

func TestNewMapValidates(t *testing.T) {
	if _, err := NewMap(0, 1); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewMap(-2, 1); err == nil {
		t.Fatal("negative shards accepted")
	}
}

func TestBaseURL(t *testing.T) {
	for _, in := range []string{"h:p", "h:p/", "http://h:p/", "http://h:p"} {
		if got := baseURL(in); got != "http://h:p" {
			t.Errorf("baseURL(%q) = %q, want http://h:p", in, got)
		}
	}
	if got := baseURL("https://h:p//"); got != "https://h:p" {
		t.Errorf("baseURL(https://h:p//) = %q, want https://h:p", got)
	}
}

// TestPusherReachesTrailingSlashPeer: a peer named host:port/ must get
// its push as a POST; an un-normalised base turns it into a redirected
// GET that the peer's mux answers with 405.
func TestPusherReachesTrailingSlashPeer(t *testing.T) {
	var got atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/weights", func(w http.ResponseWriter, _ *http.Request) {
		got.Add(1)
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	p, err := NewPusher(PusherOptions{
		Peers:  []string{strings.TrimPrefix(ts.URL, "http://") + "/"},
		Export: func() ([]core.WeightChange, uint64) { return nil, 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Publish(1, []core.WeightChange{{From: 0, To: 1, Weight: 0.5}})
	for deadline := time.Now().Add(2 * time.Second); got.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("peer never received the push")
		}
	}
}
