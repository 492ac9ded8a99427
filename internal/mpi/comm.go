package mpi

import (
	"fmt"
	"sort"
)

// Comm is a sub-communicator: an ordered subset of world ranks with its
// own rank numbering, over which the collective operations run without
// involving the other processes — the construct behind running
// non-overlapping experiments or application phases side by side.
//
// Every member must construct the communicator with the same member
// list (in the same order) and use it in lockstep, exactly like an MPI
// communicator obtained from the same MPI_Comm_split call.
type Comm struct {
	group            // members, comm rank = index into them
	space *commSpace // the member set's tag space, from the world's registry
}

// commSpace is the world's registry entry for one member set, shared by
// every Comm over that set.
type commSpace struct {
	id  int   // tag-space discriminator: registry order of first creation
	seq []int // per-world-rank collective sequence counters (lockstep)
}

// CommOf builds the communicator containing the given world ranks (in
// comm-rank order). The calling rank must be a member. Duplicate or
// out-of-range members are rejected.
func (r *Rank) CommOf(members []int) (*Comm, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("mpi: empty communicator")
	}
	seen := map[int]bool{}
	my := -1
	for i, m := range members {
		if m < 0 || m >= r.w.n {
			return nil, fmt.Errorf("mpi: member %d out of range", m)
		}
		if seen[m] {
			return nil, fmt.Errorf("mpi: duplicate member %d", m)
		}
		seen[m] = true
		if m == r.rank {
			my = i
		}
	}
	if my == -1 {
		return nil, fmt.Errorf("mpi: rank %d is not a member of %v", r.rank, members)
	}
	key := commKey(members)
	if r.w.commSeq == nil {
		r.w.commSeq = map[string]*commSpace{}
	}
	sp, ok := r.w.commSeq[key]
	if !ok {
		// Ids follow the order in which member sets are first seen.
		// The kernel runs one process at a time in a deterministic
		// order, so every run assigns the same ids, and distinct sets
		// never share a tag space.
		sp = &commSpace{id: len(r.w.commSeq), seq: make([]int, r.w.n)}
		r.w.commSeq[key] = sp
	}
	g := group{r: r, members: append([]int(nil), members...), me: my}
	return &Comm{group: g, space: sp}, nil
}

// commKey canonicalizes a member list for the shared registry (order
// matters for rank numbering but not for the key: the same set reuses
// the same tag space and sequence, preventing tag collisions between
// same-set communicators created in different orders).
func commKey(members []int) string {
	s := append([]int(nil), members...)
	sort.Ints(s)
	return fmt.Sprint(s)
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// World returns the world rank of comm rank i.
func (c *Comm) World(i int) int { return c.members[i] }

// commTagSpace sits above the world-collective tag space.
const commTagSpace = 1 << 30

// nextTag reserves the tag block of the next collective on this
// communicator. Each member advances its own counter; SPMD lockstep
// within the comm keeps the counters aligned, exactly like the world
// collectives' tags.
func (c *Comm) nextTag(op int) int {
	seq := c.space.seq[c.r.rank]
	c.space.seq[c.r.rank]++
	return commTagSpace + c.space.id*(1<<20) + (seq%(1<<16))*16 + op
}

// Send transmits data to comm rank dst.
func (c *Comm) Send(dst, tag int, data []byte) {
	if tag < 0 || tag > MaxUserTag {
		badInput("send", "user tag %d out of range [0, %d]", tag, MaxUserTag)
	}
	c.send(dst, tag, data)
}

// Recv receives from comm rank src (or AnySource) and returns the
// payload with the status translated to comm ranks. Messages from
// non-members do not match a specific src; with AnySource they would —
// callers mixing world point-to-point and comm traffic should
// partition their tags.
func (c *Comm) Recv(src, tag int) ([]byte, Status) { return c.recv(src, tag) }

// Scatter distributes blocks (indexed by comm rank, meaningful at the
// root) over the communicator and returns this member's block.
func (c *Comm) Scatter(alg Alg, root int, blocks [][]byte) []byte {
	defer c.r.endColl(c.r.beginColl("scatter", alg.String()))
	return c.scatter(c.nextTag(opScatter), c.tree("scatter", alg, root), blocks, nil)
}

// Gather collects equal-size blocks at the comm root; the root receives
// them indexed by comm rank, others get nil.
func (c *Comm) Gather(alg Alg, root int, block []byte) [][]byte {
	defer c.r.endColl(c.r.beginColl("gather", alg.String()))
	return c.gather(c.nextTag(opGather), c.tree("gather", alg, root), block, nil)
}

// Bcast sends data from the comm root to every member over a binomial
// tree and returns it on every member.
func (c *Comm) Bcast(root int, data []byte) []byte {
	defer c.r.endColl(c.r.beginColl("bcast", "binomial"))
	return c.bcast(c.nextTag(opBcast), c.tree("bcast", Binomial, root), data)
}

// Barrier synchronizes the communicator's members (dissemination).
func (c *Comm) Barrier() {
	defer c.r.endColl(c.r.beginColl("barrier", "dissemination"))
	c.barrier(c.nextTag(opBarrier))
}
