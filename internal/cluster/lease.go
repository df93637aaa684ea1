package cluster

import "fmt"

// lease is one shard's control-plane state: who holds it, under which
// fencing epoch, and through which slice the grant stays valid.
type lease struct {
	holder  int // node index, -1 unowned
	epoch   uint64
	expires int // grant valid while slice < expires; 0 while unowned
}

// leaseTable is the cluster's one lease state machine: the per-shard
// (holder, epoch, expiry) rows and every rule that moves them. It is
// pure — no clock, no lock, no I/O, no metrics. Coordinator and Fabric
// own those and differ only in how they learn that a node went quiet
// (a missed heartbeat vs. a TTL sweep); each method returns the counts
// its caller books in its ledger. Node arguments are node indices
// (>= 0) the caller has already validated. lease_model_test.go checks
// the rules against a map-based reference under random event sequences.
type leaseTable struct {
	rows []lease
	ttl  int // slices a grant stays valid without renewal
}

// newLeaseTable returns a table of unowned shards. Epochs start at 1 so
// a zero value never passes the fence.
func newLeaseTable(shards, ttl int) *leaseTable {
	t := &leaseTable{rows: make([]lease, shards), ttl: ttl}
	for i := range t.rows {
		t.rows[i] = lease{holder: -1, epoch: 1}
	}
	return t
}

// renew re-grants every lease node holds, valid through slice+ttl. A
// renewal never shortens a lease: a call that arrives late (carrying an
// older slice than one already processed) keeps the later expiry.
func (t *leaseTable) renew(node, slice int) []Grant {
	var grants []Grant
	for sh := range t.rows {
		l := &t.rows[sh]
		if l.holder != node {
			continue
		}
		if e := slice + t.ttl; e > l.expires {
			l.expires = e
		}
		grants = append(grants, Grant{Shard: sh, Epoch: l.epoch, ExpiresSlice: l.expires})
	}
	return grants
}

// fence takes every held lease that hit selects away from its holder:
// epoch bump (the fence — anything the old holder later submits is
// stale), holder and expiry cleared. It returns how many it fenced.
func (t *leaseTable) fence(hit func(lease) bool) (fenced int) {
	for sh := range t.rows {
		l := &t.rows[sh]
		if l.holder >= 0 && hit(*l) {
			*l = lease{holder: -1, epoch: l.epoch + 1}
			fenced++
		}
	}
	return fenced
}

// fenceHolder fences every lease node holds (missed heartbeat,
// mid-slice death, voluntary release).
func (t *leaseTable) fenceHolder(node int) int {
	return t.fence(func(l lease) bool { return l.holder == node })
}

// fenceExpired fences every lease not renewed past slice.
func (t *leaseTable) fenceExpired(slice int) int {
	return t.fence(func(l lease) bool { return l.expires <= slice })
}

// place assigns every unowned shard across the live nodes (ascending
// node indices) in contiguous runs, node order — the deterministic
// placement rule — each valid through slice+ttl. Held leases are not
// disturbed; with no live node nothing is placed.
func (t *leaseTable) place(live []int, slice int) (placed int) {
	if len(live) == 0 {
		return 0
	}
	var unowned []int
	for sh := range t.rows {
		if t.rows[sh].holder < 0 {
			unowned = append(unowned, sh)
		}
	}
	for i, sh := range unowned {
		l := &t.rows[sh]
		l.holder = live[i*len(live)/len(unowned)]
		l.expires = slice + t.ttl
	}
	return len(unowned)
}

// admit is the fencing gate: nil for the shard's current holder under
// its current epoch, ErrStaleEpoch for anything else — a zombie's work
// after its lease was fenced, a straggler from before a resume. A shard
// outside the table is a caller error, not a fencing verdict, and never
// matches ErrStaleEpoch. slice only labels the rejection.
func (t *leaseTable) admit(node, shard, slice int, epoch uint64) error {
	if shard < 0 || shard >= len(t.rows) {
		return fmt.Errorf("cluster: shard %d out of range", shard)
	}
	if l := t.rows[shard]; l.holder != node || l.epoch != epoch {
		return fmt.Errorf("%w: shard %d slice %d epoch %d from node %d (current epoch %d, holder %d)",
			ErrStaleEpoch, shard, slice, epoch, node, l.epoch, l.holder)
	}
	return nil
}

// epochs returns the per-shard fencing epochs (the table's persistent
// part: the checkpoint's cluster section).
func (t *leaseTable) epochs() []uint64 {
	out := make([]uint64, len(t.rows))
	for i, l := range t.rows {
		out[i] = l.epoch
	}
	return out
}

// setEpochs resets the table to unowned shards under the given epochs —
// a resume continues the interrupted run's fencing. Nothing is applied
// unless every epoch fits: the count must equal the shard count and no
// epoch may be zero (ErrLeaseTableMismatch otherwise).
func (t *leaseTable) setEpochs(epochs []uint64) error {
	if len(epochs) != len(t.rows) {
		return fmt.Errorf("%w: checkpoint has %d epochs, pipeline has %d shards",
			ErrLeaseTableMismatch, len(epochs), len(t.rows))
	}
	for sh, e := range epochs {
		if e == 0 {
			return fmt.Errorf("%w: shard %d has epoch 0, which can never pass the fence",
				ErrLeaseTableMismatch, sh)
		}
	}
	for sh, e := range epochs {
		t.rows[sh] = lease{holder: -1, epoch: e}
	}
	return nil
}
