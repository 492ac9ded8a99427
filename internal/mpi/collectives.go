package mpi

import (
	"repro/internal/collective"
	"repro/internal/obs"
)

// Alg selects a collective algorithm. It is an alias of
// collective.Alg — the type moved next to the tree constructors so the
// model layer can key predictions by algorithm without importing the
// simulator — and keeps its traditional constant names here.
type Alg = collective.Alg

// Collective algorithms implemented by this package.
const (
	Linear   = collective.AlgLinear   // flat tree: the root talks to everyone directly
	Binomial = collective.AlgBinomial // binomial tree, as in Fig 2
	Binary   = collective.AlgBinary   // balanced binary tree over contiguous ranges
	Chain    = collective.AlgChain    // chain (pipeline) tree
)

// Algorithms lists every collective algorithm.
func Algorithms() []Alg { return collective.Algorithms() }

// beginColl opens a per-rank collective-phase span named "op:alg" on
// this rank's track; every message span the network emits for this
// rank while the collective runs nests underneath it. The name is only
// assembled when observation is on, so the disabled path stays free.
func (r *Rank) beginColl(op, alg string) obs.SpanID {
	if r.w.obs == nil {
		return 0
	}
	return r.w.obs.Begin(obs.CatCollective, op+":"+alg, r.rank, r.p.Now())
}

// endColl closes a span opened by beginColl at the rank's current
// virtual time; a zero id (observation disabled) is a no-op.
func (r *Rank) endColl(id obs.SpanID) {
	if id != 0 {
		r.w.obs.End(id, r.p.Now())
	}
}

// Scatter distributes blocks from root to every rank using the given
// algorithm and returns this rank's block. blocks is meaningful only at
// the root and must hold n equal-size blocks indexed by absolute rank.
// The root's own block is returned without network cost (the paper
// treats the root's local copy as negligible).
func (r *Rank) Scatter(alg Alg, root int, blocks [][]byte) []byte {
	defer r.endColl(r.beginColl("scatter", alg.String()))
	g := r.world()
	return g.scatter(r.collTag(opScatter), g.tree("scatter", alg, root), blocks, nil)
}

// ScatterTree distributes blocks over an explicit communication tree
// rooted at tree.Root — the algorithm-agnostic form behind Scatter,
// exported so tuners can run candidate tree shapes (k-ary degrees,
// optimized mappings) that no named algorithm produces. The tree must
// span exactly the job's ranks.
func (r *Rank) ScatterTree(tree *collective.Tree, blocks [][]byte) []byte {
	defer r.endColl(r.beginColl("scatter", "tree"))
	return r.world().scatter(r.collTag(opScatter), tree, blocks, nil)
}

// Scatterv distributes variable-size blocks from root: counts[i] is the
// byte count destined for rank i and must be identical on every rank
// (as in MPI_Scatterv); blocks is meaningful only at the root, where
// len(blocks[i]) must equal counts[i]. It returns this rank's block.
//
// Variable block sizes are the vehicle for heterogeneous data
// distribution: giving each processor work proportional to its speed,
// the optimization the paper's introduction motivates.
func (r *Rank) Scatterv(alg Alg, root int, blocks [][]byte, counts []int) []byte {
	defer r.endColl(r.beginColl("scatterv", alg.String()))
	g := r.world()
	return g.scatter(r.collTag(opScatter), g.tree("scatterv", alg, root), blocks, counts)
}

// Gather collects equal-size blocks from every rank at root using the
// given algorithm. At the root it returns n blocks indexed by absolute
// rank; elsewhere it returns nil.
func (r *Rank) Gather(alg Alg, root int, block []byte) [][]byte {
	defer r.endColl(r.beginColl("gather", alg.String()))
	g := r.world()
	return g.gather(r.collTag(opGather), g.tree("gather", alg, root), block, nil)
}

// GatherTree collects equal-size blocks over an explicit communication
// tree rooted at tree.Root — the algorithm-agnostic form behind
// Gather, exported for the same tuner candidates as ScatterTree.
func (r *Rank) GatherTree(tree *collective.Tree, block []byte) [][]byte {
	defer r.endColl(r.beginColl("gather", "tree"))
	return r.world().gather(r.collTag(opGather), tree, block, nil)
}

// Gatherv collects variable-size blocks at root: every rank contributes
// its block (len(block) must equal counts[rank]); counts must be
// identical on every rank. At the root it returns n blocks indexed by
// absolute rank, nil elsewhere.
func (r *Rank) Gatherv(alg Alg, root int, block []byte, counts []int) [][]byte {
	defer r.endColl(r.beginColl("gatherv", alg.String()))
	g := r.world()
	return g.gather(r.collTag(opGather), g.tree("gatherv", alg, root), block, counts)
}

// Bcast sends data from root to every rank over a binomial tree and
// returns the data on every rank. data is meaningful only at the root.
func (r *Rank) Bcast(root int, data []byte) []byte {
	defer r.endColl(r.beginColl("bcast", "binomial"))
	g := r.world()
	return g.bcast(r.collTag(opBcast), g.tree("bcast", Binomial, root), data)
}

// Reduce combines every rank's block at the root over a binomial tree
// using op (which must be associative and commutative) and returns the
// combined block at the root, nil elsewhere.
func (r *Rank) Reduce(root int, block []byte, op func(a, b []byte) []byte) []byte {
	defer r.endColl(r.beginColl("reduce", "binomial"))
	tag := r.collTag(opReduce)
	tree := collective.Binomial(r.w.n, root)
	if r.w.n == 1 {
		return append([]byte(nil), block...)
	}
	acc := append([]byte(nil), block...)
	for range tree.Children[r.rank] {
		payload, _ := r.Recv(AnySource, tag)
		acc = op(acc, payload)
	}
	if r.rank == root {
		return acc
	}
	r.send(tree.Parent[r.rank], tag, acc)
	return nil
}

// Barrier synchronizes all ranks with the dissemination algorithm; it
// has real network cost, unlike HardSync.
func (r *Rank) Barrier() {
	defer r.endColl(r.beginColl("barrier", "dissemination"))
	r.world().barrier(r.collTag(opBarrier))
}

// Allgather distributes every rank's block to every rank with the ring
// algorithm and returns n blocks indexed by absolute rank.
func (r *Rank) Allgather(block []byte) [][]byte {
	defer r.endColl(r.beginColl("allgather", "ring"))
	tag := r.collTag(opAllgather)
	n := r.w.n
	out := make([][]byte, n)
	out[r.rank] = append([]byte(nil), block...)
	if n == 1 {
		return out
	}
	right := (r.rank + 1) % n
	left := (r.rank - 1 + n) % n
	have := r.rank // index of the block we forward next
	for s := 0; s < n-1; s++ {
		r.send(right, tag, out[have])
		payload, _ := r.Recv(left, tag)
		have = (have - 1 + n) % n
		out[have] = payload
	}
	return out
}

// Alltoall exchanges personalized blocks between all ranks linearly:
// send[i] goes to rank i, and the result's entry j holds rank j's block
// for this rank. send[rank] is copied locally.
func (r *Rank) Alltoall(send [][]byte) [][]byte {
	defer r.endColl(r.beginColl("alltoall", "linear"))
	tag := r.collTag(opAlltoall)
	n := r.w.n
	if len(send) != n {
		badInput("alltoall", "needs %d blocks, got %d", n, len(send))
	}
	out := make([][]byte, n)
	out[r.rank] = append([]byte(nil), send[r.rank]...)
	for i := 1; i < n; i++ {
		dst := (r.rank + i) % n
		r.send(dst, tag, send[dst])
	}
	for i := 1; i < n; i++ {
		payload, st := r.Recv(AnySource, tag)
		out[st.Source] = payload
	}
	return out
}
