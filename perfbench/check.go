package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sort"

	"repro/internal/features"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Digest identifies an analysis record. Nil and empty maps or slices hash
// alike, because the artifact cache does not keep the difference.
type Digest [32]byte

type hasher struct {
	buf [8]byte
	h   hash.Hash
}

func (w *hasher) i64(v int64) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(v))
	w.h.Write(w.buf[:])
}

func (w *hasher) str(s string) {
	w.i64(int64(len(s)))
	w.h.Write([]byte(s))
}

// recordDigest hashes a profile and its feature vectors.
func recordDigest(p *interp.Profile, vecs []features.Vector) Digest {
	w := &hasher{h: sha256.New()}
	w.str(p.Program)
	w.i64(p.Insns)
	w.i64(p.CondExec)
	w.i64(p.CondTaken)
	w.i64(p.Result)

	refs := make([]ir.BranchRef, 0, len(p.Branches))
	for r := range p.Branches {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Func != refs[j].Func {
			return refs[i].Func < refs[j].Func
		}
		return refs[i].Block < refs[j].Block
	})
	w.i64(int64(len(refs)))
	for _, r := range refs {
		c := p.Branches[r]
		w.str(r.Func)
		w.i64(int64(r.Block))
		w.i64(c.Executed)
		w.i64(c.Taken)
	}

	edges := make([]interp.EdgeRef, 0, len(p.Edges))
	for e := range p.Edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	w.i64(int64(len(edges)))
	for _, e := range edges {
		w.str(e.Func)
		w.i64(int64(e.From))
		w.i64(int64(e.To))
		w.i64(p.Edges[e])
	}

	calls := make([]string, 0, len(p.Calls))
	for f := range p.Calls {
		calls = append(calls, f)
	}
	sort.Strings(calls)
	w.i64(int64(len(calls)))
	for _, f := range calls {
		w.str(f)
		w.i64(p.Calls[f])
	}

	w.i64(int64(len(p.Outputs)))
	for _, v := range p.Outputs {
		w.i64(v)
	}
	w.i64(int64(len(p.FOutputs)))
	for _, v := range p.FOutputs {
		w.i64(int64(math.Float64bits(v)))
	}

	w.i64(int64(len(vecs)))
	for _, v := range vecs {
		w.str(v.Ref.Func)
		w.i64(int64(v.Ref.Block))
		for _, x := range v.Values {
			w.str(x)
		}
	}
	var d Digest
	copy(d[:], w.h.Sum(nil))
	return d
}

// sameBehaviour reports whether two runs of one program are observably
// identical: return value and every printed value.
func sameBehaviour(a, b *interp.Profile) bool {
	if a.Result != b.Result || len(a.Outputs) != len(b.Outputs) || len(a.FOutputs) != len(b.FOutputs) {
		return false
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			return false
		}
	}
	for i := range a.FOutputs {
		if math.Float64bits(a.FOutputs[i]) != math.Float64bits(b.FOutputs[i]) {
			return false
		}
	}
	return true
}
