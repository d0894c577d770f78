package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"mcpart/internal/memo"
)

// KWayKey returns a content address of the problem KWay(g, k, opts)
// solves: a SHA-256 digest over every input the partitioner reads — the
// node count and weight dimensions, each node's weights and fixed part,
// each adjacency list in order (edge order steers tie-breaking, so it is
// part of the problem), k, and the result-shaping options Tol, Fractions,
// CoarseTarget, MaxPasses and Legacy, all length-prefixed so distinct
// inputs cannot encode alike. Options are hashed as given, not with
// defaults resolved: a zero knob and its explicit default get different
// keys, which costs sharing but never exactness. Workers and Obs are left
// out: results are identical for every worker count (TestFastDeterminism)
// and observation never steers the search.
func KWayKey(g *Graph, k int, opts Options) string {
	b := make([]byte, 0, 1024)
	b = binary.AppendVarint(b, int64(k))
	b = binary.AppendVarint(b, int64(g.NumW))
	b = binary.AppendVarint(b, int64(g.Len()))
	for u, w := range g.W {
		for _, x := range w {
			b = binary.AppendVarint(b, x)
		}
		b = binary.AppendVarint(b, int64(g.Fixed[u]))
		b = binary.AppendVarint(b, int64(len(g.Adj[u])))
		for _, e := range g.Adj[u] {
			b = binary.AppendVarint(b, int64(e.To))
			b = binary.AppendVarint(b, e.W)
		}
	}
	floats := func(fs []float64) {
		b = binary.AppendVarint(b, int64(len(fs)))
		for _, f := range fs {
			b = binary.AppendUvarint(b, math.Float64bits(f))
		}
	}
	floats(opts.Tol)
	floats(opts.Fractions)
	b = binary.AppendVarint(b, int64(opts.CoarseTarget))
	b = binary.AppendVarint(b, int64(opts.MaxPasses))
	if opts.Legacy {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	sum := sha256.Sum256(b)
	return memo.NewKey("kway").Bytes(sum[:]).String()
}

// KWayMemo is KWay memoized in c under KWayKey: each distinct problem is
// solved once per cache and every later caller with the same content
// shares the stored partition. hit reports a cache hit. The returned slice
// may be shared with other callers and must be treated as read-only.
// Errors are never cached. A nil cache runs KWay directly.
func KWayMemo(c *memo.Cache, g *Graph, k int, opts Options) (part []int, hit bool, err error) {
	if c == nil {
		part, err = KWay(g, k, opts)
		return part, false, err
	}
	v, hit, err := c.Do(KWayKey(g, k, opts), func() (any, error) {
		p, err := KWay(g, k, opts)
		return p, err
	})
	if err != nil {
		return nil, hit, err
	}
	return v.([]int), hit, nil
}
