package runner

// The derived-artifact layer over the topology cache (DESIGN.md §10).
// A ball-profile artifact (graph.Profiles) is a pure function of one
// topology coordinate, just like the frozen graph itself — so the same
// content-addressing that shares graphs across sweep cells
// (GraphCache, §9) shares the profiles derived from them: concurrent
// workers asking for the same (family, n, GraphSeed) coordinate
// compute the profile exactly once (singleflight), share the immutable
// decoded artifact in memory, and persist its encoding through the
// artifact store's "profiles" namespace so later processes restore
// instead of recompute. An entire nqscaling sweep therefore grows ball
// profiles once per distinct graph — and zero times on resubmission.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
)

// DefaultMaxProfiles bounds the decoded artifacts a ProfileCache keeps
// in memory when NewProfileCache is given a non-positive limit.
const DefaultMaxProfiles = 64

// ProfileKey returns the content address of one topology coordinate's
// ball-profile artifact. It covers the build inputs (family, n, seed),
// graph.CodecVersion (the profile derives from the decoded topology)
// and graph.ProfilesCodecVersion (wire format and truncation policy),
// so a change to either orphans persisted artifacts instead of
// misreading them.
func ProfileKey(family graph.Family, n int, seed int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "profiles\x00codec=%d\x00profilecodec=%d\x00family=%s\x00n=%d\x00seed=%d",
		graph.CodecVersion, graph.ProfilesCodecVersion, family, n, seed)
	return hex.EncodeToString(h.Sum(nil))
}

// ProfileCacheStats snapshots a ProfileCache's effectiveness counters.
type ProfileCacheStats struct {
	// Computes counts profiles grown from scratch by the batch kernel —
	// the acceptance invariant is one per distinct (family, n,
	// GraphSeed) across a whole sweep, zero across a resubmission.
	Computes uint64 `json:"computes"`
	// AttachHits counts Gets answered by a profile already attached to
	// the shared graph instance (the cheapest path: no lock, no lookup).
	AttachHits uint64 `json:"attach_hits"`
	// MemHits counts Gets served by a decoded in-memory artifact.
	MemHits uint64 `json:"mem_hits"`
	// StoreHits counts Gets restored by decoding a blob-store entry.
	StoreHits uint64 `json:"store_hits"`
	// Dedups counts Gets that joined another worker's in-flight
	// computation instead of starting their own (singleflight).
	Dedups uint64 `json:"dedups"`
	// Evictions counts decoded artifacts dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of decoded artifacts currently shared.
	Entries int `json:"entries"`
}

// ProfileCache deduplicates ball-profile computation across sweep
// cells, concurrent sweeps, and Pool tenants. Construct with
// NewProfileCache; attach to Runner.Profiles (or share one across many
// Runners, typically alongside a GraphCache over the same store).
type ProfileCache struct {
	store    BlobStore // optional persistence; nil = memory only
	profiles *memo[*graph.Profiles]

	computes, attachHits, storeHits atomic.Uint64
}

// NewProfileCache returns a cache holding up to maxProfiles decoded
// artifacts (non-positive means DefaultMaxProfiles), persisting
// encodings through store when it is non-nil.
func NewProfileCache(store BlobStore, maxProfiles int) *ProfileCache {
	if maxProfiles <= 0 {
		maxProfiles = DefaultMaxProfiles
	}
	return &ProfileCache{store: store, profiles: newMemo[*graph.Profiles](maxProfiles)}
}

// Attach returns the ball-profile artifact of one topology coordinate,
// computing it at most once per process regardless of how many workers
// ask concurrently, and memoizes it on g so every NQ query against the
// shared instance answers from the profile. g must be the graph of the
// same coordinate (the one Cell.BuildGraph returned): the same key
// always names the same graph (DESIGN.md §9), so an artifact shared
// from memory always fits g. The returned artifact is immutable and
// shared.
func (pc *ProfileCache) Attach(g *graph.Graph, family graph.Family, n int, seed int64) *graph.Profiles {
	// The canonical radius is a function of the graph alone, so the
	// artifact's content never depends on which cell asked first.
	radius := graph.ProfileRadius(g.N(), g.Diameter())
	if p := g.Profiles(); p != nil && p.Covers(radius) {
		pc.attachHits.Add(1)
		return p
	}
	key := ProfileKey(family, n, seed)
	p, _ := pc.profiles.get(key, func() (*graph.Profiles, error) {
		return pc.load(g, radius, key), nil
	})
	return g.AttachProfiles(p)
}

// usable reports whether an artifact restored from the store fits this
// graph and covers the canonical radius (a deeper or complete artifact
// also qualifies). Store contents come from outside the process, so
// they are checked; artifacts shared from memory need no check.
func (pc *ProfileCache) usable(p *graph.Profiles, g *graph.Graph, radius int) bool {
	return p != nil && p.N() == g.N() && p.Covers(radius)
}

// load restores the artifact from the blob store or computes and
// persists it. A blob that fails to decode, mismatches the graph, or
// predates a deeper truncation policy falls back to a recomputation —
// and the fresh encoding is re-put, shadowing the stale record.
func (pc *ProfileCache) load(g *graph.Graph, radius int, key string) *graph.Profiles {
	if pc.store != nil {
		if blob, ok := pc.store.Get(key); ok {
			if p, err := graph.DecodeProfiles(blob); err == nil && pc.usable(p, g, radius) {
				pc.storeHits.Add(1)
				return p
			}
		}
	}
	p := g.BallProfiles(radius)
	pc.computes.Add(1)
	if pc.store != nil {
		pc.store.Put(key, graph.EncodeProfiles(p))
	}
	return p
}

// Stats snapshots the counters.
func (pc *ProfileCache) Stats() ProfileCacheStats {
	return ProfileCacheStats{
		Computes:   pc.computes.Load(),
		AttachHits: pc.attachHits.Load(),
		MemHits:    pc.profiles.memHits.Load(),
		StoreHits:  pc.storeHits.Load(),
		Dedups:     pc.profiles.dedups.Load(),
		Evictions:  pc.profiles.evictions.Load(),
		Entries:    pc.profiles.len(),
	}
}
