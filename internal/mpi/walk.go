package mpi

import (
	"fmt"

	"repro/internal/collective"
)

// group is the rank set a rooted collective runs over: the whole world
// (members nil, group rank = world rank) or a Comm's member list
// (group rank = index). It is a plain value, so the world's collectives
// build nothing to describe it.
type group struct {
	r       *Rank
	members []int // world rank of each group rank; nil for the world
	me      int   // the calling process's group rank
}

// world is the identity group over every rank of the job.
func (r *Rank) world() group { return group{r: r, me: r.rank} }

func (g group) size() int {
	if g.members == nil {
		return g.r.w.n
	}
	return len(g.members)
}

// worldRank translates group rank i to its world rank.
func (g group) worldRank(i int) int {
	if g.members == nil {
		return i
	}
	return g.members[i]
}

// groupRank translates world rank w to its group rank (-1 if absent).
func (g group) groupRank(w int) int {
	if g.members == nil {
		return w
	}
	for i, m := range g.members {
		if m == w {
			return i
		}
	}
	return -1
}

func (g group) send(dst, tag int, data []byte) { g.r.send(g.worldRank(dst), tag, data) }

// recv receives from group rank src (or AnySource) and returns the
// payload with the status's source translated to its group rank.
func (g group) recv(src, tag int) ([]byte, Status) {
	if src != AnySource {
		src = g.worldRank(src)
	}
	data, st := g.r.Recv(src, tag)
	st.Source = g.groupRank(st.Source)
	return data, st
}

// tree builds the algorithm's communication tree over the group,
// rejecting a root outside it.
func (g group) tree(op string, alg Alg, root int) *collective.Tree {
	n := g.size()
	if root < 0 || root >= n {
		badInput(op, "root %d out of range [0, %d)", root, n)
	}
	return alg.Tree(n, root)
}

// check validates the shape shared by every rank of a scatter or
// gather: the tree must span the group and counts, when given, must
// hold one non-negative size per rank.
func (g group) check(op string, tree *collective.Tree, counts []int) {
	n := g.size()
	if tree.N != n {
		badInput(op, "tree spans %d ranks, group has %d", tree.N, n)
	}
	if counts == nil {
		return
	}
	if len(counts) != n {
		badInput(op, "needs %d counts, got %d", n, len(counts))
	}
	for i, c := range counts {
		if c < 0 {
			badInput(op, "count %d is negative (%d)", i, c)
		}
	}
}

// relBytes is the byte length of the blocks of root-relative ranks
// [lo, hi): (hi-lo)·bs for equal blocks (counts nil), else the sum of
// their counts.
func relBytes(tree *collective.Tree, counts []int, bs, lo, hi int) int {
	if counts == nil {
		return (hi - lo) * bs
	}
	s := 0
	for rel := lo; rel < hi; rel++ {
		s += counts[(rel+tree.Root)%tree.N]
	}
	return s
}

// scatter is the one tree scatter (eq 1, Fig 2): every arc carries the
// blocks of its subtree in root-relative order, and each rank keeps the
// first block of its batch and forwards each child its contiguous
// slice. counts gives per-rank block sizes; nil means equal blocks.
// blocks is read only at the root, whose own block is returned without
// network cost.
func (g group) scatter(tag int, tree *collective.Tree, blocks [][]byte, counts []int) []byte {
	op := "scatter"
	if counts != nil {
		op = "scatterv"
	}
	g.check(op, tree, counts)
	n, root := tree.N, tree.Root
	if g.me == root {
		if len(blocks) != n {
			badInput(op, "root has %d blocks, want %d", len(blocks), n)
		}
		for i, b := range blocks {
			if counts != nil && len(b) != counts[i] {
				badInput(op, "block %d has %d bytes, counts say %d", i, len(b), counts[i])
			}
			if counts == nil && len(b) != len(blocks[0]) {
				badInput(op, "blocks must have equal size (got %d and %d bytes)", len(blocks[0]), len(b))
			}
		}
		bs := len(blocks[0])
		for _, c := range tree.Children[root] {
			lo, hi := tree.RelRange(c)
			batch := make([]byte, 0, relBytes(tree, counts, bs, lo, hi))
			for rel := lo; rel < hi; rel++ {
				batch = append(batch, blocks[(rel+root)%n]...)
			}
			g.send(c, tag, batch)
		}
		return blocks[root]
	}

	payload, _ := g.recv(tree.Parent[g.me], tag)
	lo, hi := tree.RelRange(g.me)
	bs := 0
	if counts == nil {
		if len(payload)%(hi-lo) != 0 {
			panic(fmt.Sprintf("mpi: scatter batch of %d bytes not divisible by subtree size %d", len(payload), hi-lo))
		}
		bs = len(payload) / (hi - lo)
	} else if want := relBytes(tree, counts, 0, lo, hi); len(payload) != want {
		badInput(op, "rank %d received %d bytes, counts say %d (counts differ across ranks?)", g.me, len(payload), want)
	}
	for _, c := range tree.Children[g.me] {
		clo, chi := tree.RelRange(c)
		start := relBytes(tree, counts, bs, lo, clo)
		g.send(c, tag, payload[start:start+relBytes(tree, counts, bs, clo, chi)])
	}
	return payload[:relBytes(tree, counts, bs, lo, lo+1)]
}

// gather is the one tree gather, the scatter walk reversed: each rank
// assembles its subtree's batch in root-relative order, its own block
// first, and sends it to its parent. counts gives per-rank block sizes;
// nil means equal blocks of len(block) bytes. The root returns the
// blocks indexed by group rank, every other rank nil.
func (g group) gather(tag int, tree *collective.Tree, block []byte, counts []int) [][]byte {
	op := "gather"
	if counts != nil {
		op = "gatherv"
	}
	g.check(op, tree, counts)
	if counts != nil && len(block) != counts[g.me] {
		badInput(op, "rank %d block has %d bytes, counts say %d", g.me, len(block), counts[g.me])
	}
	bs := len(block)
	lo, hi := tree.RelRange(g.me)
	batch := make([]byte, relBytes(tree, counts, bs, lo, hi))
	copy(batch, block)
	for range tree.Children[g.me] {
		payload, st := g.recv(AnySource, tag)
		clo, chi := tree.RelRange(st.Source)
		start := relBytes(tree, counts, bs, lo, clo)
		end := start + relBytes(tree, counts, bs, clo, chi)
		if len(payload) != end-start {
			badInput(op, "batch from rank %d has %d bytes, want %d", st.Source, len(payload), end-start)
		}
		copy(batch[start:end], payload)
	}
	if g.me != tree.Root {
		g.send(tree.Parent[g.me], tag, batch)
		return nil
	}
	out := make([][]byte, tree.N)
	at := 0
	for rel := 0; rel < tree.N; rel++ {
		next := at + relBytes(tree, counts, bs, rel, rel+1)
		out[(rel+tree.Root)%tree.N] = batch[at:next:next]
		at = next
	}
	return out
}

// bcast sends data down the tree from its root and returns it on every
// rank; data is read only at the root.
func (g group) bcast(tag int, tree *collective.Tree, data []byte) []byte {
	if g.me != tree.Root {
		data, _ = g.recv(tree.Parent[g.me], tag)
	}
	for _, c := range tree.Children[g.me] {
		g.send(c, tag, data)
	}
	return data
}

// barrier synchronizes the group with the dissemination algorithm: in
// round k every rank signals the rank 2^k ahead and waits for the one
// 2^k behind.
func (g group) barrier(tag int) {
	n := g.size()
	for k := 1; k < n; k <<= 1 {
		g.send((g.me+k)%n, tag, nil)
		g.recv((g.me-k+n)%n, tag)
	}
}
