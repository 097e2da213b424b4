// Descriptor-space corpus generation for search-scaling evaluation.
//
// The pixel pipeline (Generate/GenerateCorpus) tops out around a few
// thousand key frames before extraction time dominates; the recall@K and
// pruning benchmarks need 100k–1M. This file synthesises corpora directly
// in descriptor space: planted clusters with controlled intra-cluster
// spread, a configurable fraction of near-duplicate frames with recorded
// ground truth, and §4.2 buckets drawn from a fixed palette. Every frame
// is a pure function of (config, frame index) — StreamClusterCorpus emits
// frames one at a time, holds nothing back, and regenerating any frame
// (ClusterCorpus.Set: for near-duplicate bases, query construction or a
// search reference that keeps no copy of the corpus) is O(1) — so corpus
// memory is bounded by whatever the caller batches, never by the corpus.
package synthvid

import (
	"fmt"
	"math/rand"

	"cbvr/internal/features"
	"cbvr/internal/rangeindex"
)

// ClusterCorpusConfig parameterises a descriptor-space corpus. The zero
// value is usable; defaults are applied internally.
type ClusterCorpusConfig struct {
	// Frames is the corpus size in key frames (default 10000).
	Frames int
	// Clusters is the number of planted appearance clusters (default
	// Frames/500, min 8). Frame i belongs to cluster i mod Clusters, so
	// cluster populations are balanced; the first Clusters frames (one
	// per cluster) are the cluster exemplars.
	Clusters int
	// NearDupRate is the probability that a non-exemplar frame is a
	// near-duplicate of its cluster's exemplar rather than an ordinary
	// member (default 0.02 — roughly ten duplicates per exemplar at the
	// default cluster population, so a top-10 query has a crisply
	// determined answer set instead of dozens of interchangeable ones).
	// Near-duplicates record the exemplar's ID as retrieval ground truth.
	NearDupRate float64
	// FramesPerVideo groups frames into synthetic videos (default 16).
	FramesPerVideo int
	// Seed drives all generation; 0 means seed 1.
	Seed int64
}

func (c ClusterCorpusConfig) withDefaults() ClusterCorpusConfig {
	if c.Frames <= 0 {
		c.Frames = 10000
	}
	if c.Clusters <= 0 {
		c.Clusters = c.Frames / 500
		if c.Clusters < 8 {
			c.Clusters = 8
		}
	}
	if c.Clusters > c.Frames {
		c.Clusters = c.Frames
	}
	if c.NearDupRate < 0 {
		c.NearDupRate = 0
	} else if c.NearDupRate == 0 {
		c.NearDupRate = 0.02
	}
	if c.FramesPerVideo <= 0 {
		c.FramesPerVideo = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// DescriptorFrame is one synthesised key frame: descriptors, bucket and
// generation provenance (cluster and near-duplicate ground truth).
type DescriptorFrame struct {
	ID         int64
	VideoID    int64
	VideoName  string
	FrameIndex int
	// Cluster is the planted cluster index; NearDupOf is the key-frame ID
	// of the cluster exemplar this frame near-duplicates, 0 for ordinary
	// members (and for the exemplars themselves).
	Cluster   int
	NearDupOf int64
	Bucket    rangeindex.Range
	Set       *features.Set
}

// ClusterCorpus is a corpus configuration with every cluster's base
// profile built once. Building a profile costs about as much as jittering
// a frame around it, so frames share the table instead of rebuilding
// their profile each. It is immutable after NewClusterCorpus and safe for
// concurrent use.
type ClusterCorpus struct {
	cfg   ClusterCorpusConfig
	bases []*features.Set // cluster -> base profile (clusterBaseSet)
}

// NewClusterCorpus applies cfg's defaults and builds its cluster profiles.
func NewClusterCorpus(cfg ClusterCorpusConfig) *ClusterCorpus {
	cfg = cfg.withDefaults()
	c := &ClusterCorpus{cfg: cfg, bases: make([]*features.Set, cfg.Clusters)}
	for i := range c.bases {
		c.bases[i] = clusterBaseSet(cfg.Seed, i)
	}
	return c
}

// StreamClusterCorpus generates the corpus frame by frame in ascending ID
// order (ID = index + 1), invoking emit for each. It retains nothing
// between frames; an emit error aborts the stream and is returned.
func StreamClusterCorpus(cfg ClusterCorpusConfig, emit func(*DescriptorFrame) error) error {
	c := NewClusterCorpus(cfg)
	for i := 0; i < c.cfg.Frames; i++ {
		if err := emit(c.frame(i)); err != nil {
			return err
		}
	}
	return nil
}

// Set regenerates the descriptor set of the corpus frame with key-frame
// ID id: a fresh copy, equal to the Set the stream emits for that ID. An
// ID outside the corpus has no set (nil).
func (c *ClusterCorpus) Set(id int64) *features.Set {
	if id < 1 || id > int64(c.cfg.Frames) {
		return nil
	}
	set, _ := c.frameSet(int(id - 1))
	return set
}

// ClusterQueries synthesises nq query frames, each a fresh tight
// near-duplicate of a cluster exemplar already in the corpus (query q
// targets cluster q mod Clusters). NearDupOf records the target exemplar
// ID; Bucket is the cluster's palette bucket, so range pruning treats the
// query exactly like its target. Queries use a seed stream disjoint from
// the corpus frames'.
func ClusterQueries(cfg ClusterCorpusConfig, nq int) []*DescriptorFrame {
	c := NewClusterCorpus(cfg)
	out := make([]*DescriptorFrame, nq)
	for q := 0; q < nq; q++ {
		cluster := q % c.cfg.Clusters
		rng := frameRand(c.cfg.Seed, -1-int64(q))
		out[q] = &DescriptorFrame{
			ID:        int64(-1 - q), // never collides with corpus IDs
			Cluster:   cluster,
			NearDupOf: int64(cluster) + 1,
			Bucket:    clusterBucket(cluster),
			Set:       jitterSet(c.exemplarSet(cluster), rng, nearDupJitter),
		}
	}
	return out
}

// Jitter amplitudes: members spread inside their cluster; near-dups sit
// an order of magnitude closer to their base than ordinary members.
const (
	memberJitter  = 0.08
	nearDupJitter = 0.008
)

// frameRand derives a frame-local PRNG. The multiplier decorrelates
// consecutive indices (splitmix-style), so neighbouring frames share no
// visible structure beyond their cluster profile.
func frameRand(seed, idx int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ (idx+0x9e37)*0x2545f4914f6cdd1d))
}

// frame synthesises corpus frame i (ID i+1).
func (c *ClusterCorpus) frame(i int) *DescriptorFrame {
	cluster := i % c.cfg.Clusters
	f := &DescriptorFrame{
		ID:         int64(i) + 1,
		VideoID:    int64(i/c.cfg.FramesPerVideo) + 1,
		FrameIndex: i % c.cfg.FramesPerVideo,
		Cluster:    cluster,
		Bucket:     clusterBucket(cluster),
	}
	f.VideoName = fmt.Sprintf("synth_%06d", f.VideoID)
	f.Set, f.NearDupOf = c.frameSet(i)
	return f
}

// frameSet draws corpus frame i's descriptor set from the frame's own
// PRNG stream, and the exemplar ID it near-duplicates (0 for an ordinary
// member or an exemplar).
func (c *ClusterCorpus) frameSet(i int) (*features.Set, int64) {
	cluster := i % c.cfg.Clusters
	rng := frameRand(c.cfg.Seed, int64(i))
	if i >= c.cfg.Clusters && rng.Float64() < c.cfg.NearDupRate {
		return jitterSet(c.exemplarSet(cluster), rng, nearDupJitter), int64(cluster) + 1
	}
	return jitterSet(c.bases[cluster], rng, memberJitter), 0
}

// exemplarSet regenerates cluster's exemplar (corpus frame index ==
// cluster; exemplars are never near-duplicates, so this never recurses).
func (c *ClusterCorpus) exemplarSet(cluster int) *features.Set {
	// Replicates frameSet's exemplar path exactly: exemplar indices skip
	// the near-duplicate draw, so the PRNG goes straight to jitter.
	rng := frameRand(c.cfg.Seed, int64(cluster))
	return jitterSet(c.bases[cluster], rng, memberJitter)
}

// bucketPalette is the fixed set of §4.2 ranges clusters draw from — the
// shapes AssignFaithful actually produces (root, halves, quarters,
// eighths), so synthetic buckets prune like real ones.
var bucketPalette = []rangeindex.Range{
	{Min: 0, Max: 255},
	{Min: 0, Max: 127}, {Min: 128, Max: 255},
	{Min: 0, Max: 63}, {Min: 64, Max: 127}, {Min: 128, Max: 191}, {Min: 192, Max: 255},
	{Min: 0, Max: 31}, {Min: 32, Max: 63}, {Min: 96, Max: 127}, {Min: 160, Max: 191}, {Min: 224, Max: 255},
}

func clusterBucket(cluster int) rangeindex.Range {
	return bucketPalette[cluster%len(bucketPalette)]
}

// clusterBaseSet builds cluster's base descriptor profile — the point the
// members jitter around — deterministically from (seed, cluster).
func clusterBaseSet(seed int64, cluster int) *features.Set {
	rng := rand.New(rand.NewSource(seed ^ (int64(cluster)+0x51ed)*0x3f58476d1ce4e5b9))
	set := &features.Set{}

	// Colour histogram: mass concentrated on a handful of cluster-
	// specific bins over a low uniform floor (real frames look like this:
	// few dominant quantised colours plus noise).
	hist := &features.ColorHistogram{}
	total := 90000 // 300×300 analysis pixels
	dominant := 3 + rng.Intn(4)
	left := total
	for d := 0; d < dominant; d++ {
		bin := rng.Intn(len(hist.Bins))
		share := left / 2
		hist.Bins[bin] += share
		left -= share
	}
	for left > 0 {
		bin := rng.Intn(len(hist.Bins))
		c := 1 + rng.Intn(50)
		if c > left {
			c = left
		}
		hist.Bins[bin] += c
		left -= c
	}
	set.Histogram = hist

	// GLCM: statistics in their natural ranges.
	set.GLCM = &features.GLCM{
		PixelCounter: 180000,
		ASM:          rng.Float64(),
		Contrast:     rng.Float64() * 800,
		Correlation:  rng.Float64()*2 - 1,
		IDM:          rng.Float64(),
		Entropy:      rng.Float64() * 8,
	}

	gab := &features.Gabor{}
	for i := range gab.Vec {
		gab.Vec[i] = rng.Float64() * 2
	}
	set.Gabor = gab

	tam := &features.Tamura{
		Coarseness: rng.Float64() * 20000,
		Contrast:   rng.Float64() * 128,
	}
	for i := range tam.Directionality {
		tam.Directionality[i] = rng.Float64() * 100
	}
	set.Tamura = tam

	cor := &features.Correlogram{}
	for b := range cor.Cor {
		for d := range cor.Cor[b] {
			cor.Cor[b][d] = rng.Float64()
		}
	}
	set.Correlogram = cor

	set.Regions = &features.RegionStats{
		Regions: 1 + rng.Intn(40),
		Holes:   rng.Intn(10),
		Major:   1 + rng.Intn(8),
	}

	nv := &features.NaiveSignature{}
	for p := range nv.Sig {
		for c := range nv.Sig[p] {
			nv.Sig[p][c] = uint8(rng.Intn(256))
		}
	}
	set.Naive = nv
	return set
}

// jitterSet returns a perturbed deep copy of base, which it only reads, so
// one base serves every frame of its cluster. Every continuous value
// moves by a relative amount drawn from ±amp (plus a small absolute term
// where values can sit at zero), integer counts step with probability
// proportional to amp. amp therefore directly controls intra-cluster
// spread.
func jitterSet(base *features.Set, rng *rand.Rand, amp float64) *features.Set {
	rel := func(v float64) float64 { return v * (1 + (rng.Float64()*2-1)*amp) }
	set := &features.Set{}

	hist := &features.ColorHistogram{}
	for i, c := range base.Histogram.Bins {
		if c == 0 {
			continue
		}
		n := int(rel(float64(c)) + 0.5)
		if n < 0 {
			n = 0
		}
		hist.Bins[i] = n
	}
	set.Histogram = hist

	g := *base.GLCM
	g.ASM = rel(g.ASM)
	g.Contrast = rel(g.Contrast)
	g.Correlation = g.Correlation + (rng.Float64()*2-1)*amp
	g.IDM = rel(g.IDM)
	g.Entropy = rel(g.Entropy)
	set.GLCM = &g

	gab := *base.Gabor
	for i := range gab.Vec {
		gab.Vec[i] = rel(gab.Vec[i]) + (rng.Float64()*2-1)*amp*0.05
	}
	set.Gabor = &gab

	tam := *base.Tamura
	tam.Coarseness = rel(tam.Coarseness)
	tam.Contrast = rel(tam.Contrast)
	for i := range tam.Directionality {
		tam.Directionality[i] = rel(tam.Directionality[i])
	}
	set.Tamura = &tam

	cor := *base.Correlogram
	for b := range cor.Cor {
		for d := range cor.Cor[b] {
			cor.Cor[b][d] = rel(cor.Cor[b][d])
		}
	}
	set.Correlogram = &cor

	reg := *base.Regions
	if rng.Float64() < amp*4 {
		reg.Regions += rng.Intn(3) - 1
		if reg.Regions < 1 {
			reg.Regions = 1
		}
	}
	if rng.Float64() < amp*4 {
		reg.Holes += rng.Intn(3) - 1
		if reg.Holes < 0 {
			reg.Holes = 0
		}
	}
	set.Regions = &reg

	nv := *base.Naive
	span := amp * 256
	if span < 1 {
		span = 1
	}
	for p := range nv.Sig {
		for c := range nv.Sig[p] {
			v := float64(nv.Sig[p][c]) + (rng.Float64()*2-1)*span
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			nv.Sig[p][c] = uint8(v)
		}
	}
	set.Naive = &nv
	return set
}
