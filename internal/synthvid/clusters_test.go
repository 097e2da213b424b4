package synthvid

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// TestClusterCorpusRegenerationEqualsStream pins ClusterCorpus.Set to the
// stream: the set it regenerates for every ID equals, deeply, the set
// StreamClusterCorpus emits for that ID. The configurations cover
// exemplars, ordinary members and near-duplicates (a raised NearDupRate),
// at the defaults and at a non-default cluster count, grouping and seed.
func TestClusterCorpusRegenerationEqualsStream(t *testing.T) {
	for _, cfg := range []ClusterCorpusConfig{
		{Frames: 400, NearDupRate: 0.3},
		{Frames: 300, Clusters: 7, NearDupRate: 0.5, FramesPerVideo: 5, Seed: 99},
	} {
		c := NewClusterCorpus(cfg)
		var exemplars, members, dups int
		err := StreamClusterCorpus(cfg, func(f *DescriptorFrame) error {
			switch {
			case f.ID <= int64(c.cfg.Clusters):
				exemplars++
			case f.NearDupOf != 0:
				dups++
			default:
				members++
			}
			if got := c.Set(f.ID); !reflect.DeepEqual(got, f.Set) {
				t.Fatalf("%+v: regenerated set of frame %d differs from the streamed one", cfg, f.ID)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if exemplars == 0 || members == 0 || dups == 0 {
			t.Fatalf("%+v: %d exemplars, %d members, %d near-duplicates; want some of each", cfg, exemplars, members, dups)
		}
		if c.Set(0) != nil || c.Set(int64(c.cfg.Frames)+1) != nil {
			t.Fatalf("%+v: an ID outside the corpus regenerated a set", cfg)
		}
	}
}

// TestClusterCorpusConcurrentSet pins that one ClusterCorpus serves
// several goroutines at once, as a regenerator shared by concurrent
// reference searches does: each reads the shared cluster profiles and
// gets the set a lone caller gets. Run it under -race.
func TestClusterCorpusConcurrentSet(t *testing.T) {
	c := NewClusterCorpus(ClusterCorpusConfig{Frames: 64, Clusters: 4, NearDupRate: 0.3})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int64(1); id <= 64; id++ {
				if got := c.Set(id); !reflect.DeepEqual(got, NewClusterCorpus(c.cfg).Set(id)) {
					t.Errorf("concurrent Set(%d) differs from a fresh corpus's", id)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestClusterCorpusDigest pins the generated corpus and queries bit for
// bit: every float of every emitted frame and query feeds a SHA-256 (JSON
// encodes floats in their shortest exact form). A change to generation
// order, seeding or the shared cluster profiles moves the digest, and
// with it every recall figure measured on the corpus.
func TestClusterCorpusDigest(t *testing.T) {
	for _, tc := range []struct {
		cfg  ClusterCorpusConfig
		want string
	}{
		{ClusterCorpusConfig{Frames: 2000}, "ae23c5c710a490643d4807bbd1e391cff95809e90b4d243d7a66f606b47d6329"},
		{ClusterCorpusConfig{Frames: 500, Clusters: 7, NearDupRate: 0.3, FramesPerVideo: 5, Seed: 99}, "822a3733870a1b123ef0bdbdefbc4d6376bdf89266b34d594cab0589c3108269"},
	} {
		h := sha256.New()
		enc := json.NewEncoder(h)
		if err := StreamClusterCorpus(tc.cfg, func(f *DescriptorFrame) error { return enc.Encode(f) }); err != nil {
			t.Fatal(err)
		}
		for _, q := range ClusterQueries(tc.cfg, 20) {
			if err := enc.Encode(q); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%+v: corpus digest %s, want %s", tc.cfg, got, tc.want)
		}
	}
}
