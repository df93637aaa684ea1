package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ntpscan/internal/chaos"
)

// The lease table, checked once against a brute-force reference. Both
// are driven by the same seeded random sequence of renew / fence-holder
// (which is also what a release is) / fence-expired / place / admit
// events; after every event the table's rows and the call's result must
// equal the model's, and the protocol's safety properties must hold.
// The adapters' own tests (protocol_test.go, fabric_test.go) only check
// wiring — every lease rule is proven here.

const (
	modelShards = 6
	modelNodes  = 4
	modelTTL    = 2
	modelEvents = 10_000
	modelSlices = 12 // slices are drawn out of order, as late calls arrive
)

// leaseModel is the reference: one map entry per shard, rules written
// for obviousness, not speed.
type leaseModel struct {
	rows map[int]lease
}

func newLeaseModel() *leaseModel {
	m := &leaseModel{rows: map[int]lease{}}
	for sh := 0; sh < modelShards; sh++ {
		m.rows[sh] = lease{holder: -1, epoch: 1}
	}
	return m
}

func (m *leaseModel) renew(node, slice int) (grants []Grant) {
	for sh := 0; sh < modelShards; sh++ {
		l := m.rows[sh]
		if l.holder != node {
			continue
		}
		if l.expires < slice+modelTTL {
			l.expires = slice + modelTTL
		}
		m.rows[sh] = l
		grants = append(grants, Grant{Shard: sh, Epoch: l.epoch, ExpiresSlice: l.expires})
	}
	return grants
}

// fence bumps every held shard the predicate selects; fence-holder and
// fence-expired are its two predicates.
func (m *leaseModel) fence(hit func(lease) bool) (n int) {
	for sh, l := range m.rows {
		if l.holder >= 0 && hit(l) {
			m.rows[sh] = lease{holder: -1, epoch: l.epoch + 1}
			n++
		}
	}
	return n
}

// place hands live node k the k-th contiguous run of the unowned
// shards: positions [ceil(k·U/L), ceil((k+1)·U/L)) of U unowned over L
// live nodes.
func (m *leaseModel) place(live []int, slice int) int {
	var unowned []int
	for sh := 0; sh < modelShards; sh++ {
		if m.rows[sh].holder < 0 {
			unowned = append(unowned, sh)
		}
	}
	U, L := len(unowned), len(live)
	if L == 0 {
		return 0
	}
	for k, node := range live {
		for i := (k*U + L - 1) / L; i < ((k+1)*U+L-1)/L; i++ {
			m.rows[unowned[i]] = lease{holder: node, epoch: m.rows[unowned[i]].epoch, expires: slice + modelTTL}
		}
	}
	return U
}

func (m *leaseModel) admits(node, shard int, epoch uint64) bool {
	l, ok := m.rows[shard]
	return ok && l.holder == node && l.epoch == epoch
}

func TestLeaseTableMatchesModel(t *testing.T) {
	for _, seed := range chaos.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			tab := newLeaseTable(modelShards, modelTTL)
			ref := newLeaseModel()
			// granted remembers the one node each (shard, epoch) was ever
			// held under.
			type grantKey struct {
				shard int
				epoch uint64
			}
			granted := map[grantKey]int{}

			for ev := 0; ev < modelEvents; ev++ {
				before := append([]lease(nil), tab.rows...)
				node := rng.Intn(modelNodes + 1) // modelNodes itself is never live, so never a holder
				slice := rng.Intn(modelSlices)
				var what string
				switch k := rng.Intn(6); k {
				case 0:
					what = fmt.Sprintf("renew(node %d, slice %d)", node, slice)
					got, want := tab.renew(node, slice), ref.renew(node, slice)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("event %d %s: grants %+v, model %+v", ev, what, got, want)
					}
					for sh, b := range before {
						a := tab.rows[sh]
						if a.holder != b.holder || a.epoch != b.epoch || a.expires < b.expires {
							t.Fatalf("event %d %s: shard %d went %+v → %+v (renew may only extend expiry)", ev, what, sh, b, a)
						}
					}
				case 1, 2:
					var hit func(lease) bool
					var got int
					if k == 1 {
						what = fmt.Sprintf("fenceHolder(node %d)", node)
						hit = func(l lease) bool { return l.holder == node }
						got = tab.fenceHolder(node)
					} else {
						what = fmt.Sprintf("fenceExpired(slice %d)", slice)
						hit = func(l lease) bool { return l.expires <= slice }
						got = tab.fenceExpired(slice)
					}
					if want := ref.fence(hit); got != want {
						t.Fatalf("event %d %s: fenced %d, model %d", ev, what, got, want)
					}
					for sh, b := range before {
						want := b
						if b.holder >= 0 && hit(b) {
							want = lease{holder: -1, epoch: b.epoch + 1} // exactly one bump
						}
						if tab.rows[sh] != want {
							t.Fatalf("event %d %s: shard %d went %+v → %+v, want %+v", ev, what, sh, b, tab.rows[sh], want)
						}
					}
				case 3:
					var live []int
					for n := 0; n < modelNodes; n++ {
						if rng.Intn(2) == 0 {
							live = append(live, n)
						}
					}
					what = fmt.Sprintf("place(live %v, slice %d)", live, slice)
					if got, want := tab.place(live, slice), ref.place(live, slice); got != want {
						t.Fatalf("event %d %s: placed %d, model %d", ev, what, got, want)
					}
					prev := -1
					for sh, b := range before {
						a := tab.rows[sh]
						if b.holder >= 0 || len(live) == 0 {
							if a != b {
								t.Fatalf("event %d %s: disturbed shard %d: %+v → %+v", ev, what, sh, b, a)
							}
							continue
						}
						if !slices.Contains(live, a.holder) || a.holder < prev || a.epoch != b.epoch || a.expires != slice+modelTTL {
							t.Fatalf("event %d %s: shard %d placed as %+v after holder %d", ev, what, sh, a, prev)
						}
						prev = a.holder
					}
				default:
					shard := rng.Intn(modelShards+2) - 1
					epoch := uint64(rng.Intn(3))
					if shard >= 0 && shard < modelShards {
						epoch = tab.rows[shard].epoch - 1 + uint64(rng.Intn(3))
						if h := tab.rows[shard].holder; h >= 0 && rng.Intn(2) == 0 {
							node = h // make accepted submissions common
						}
					}
					what = fmt.Sprintf("admit(node %d, shard %d, epoch %d)", node, shard, epoch)
					err := tab.admit(node, shard, slice, epoch)
					switch inRange := shard >= 0 && shard < modelShards; {
					case !inRange && (err == nil || errors.Is(err, ErrStaleEpoch)):
						t.Fatalf("event %d %s: err = %v, want a non-fencing range error", ev, what, err)
					case inRange && ref.admits(node, shard, epoch) != (err == nil):
						t.Fatalf("event %d %s: err = %v, model admits = %v", ev, what, err, ref.admits(node, shard, epoch))
					case inRange && err != nil && !errors.Is(err, ErrStaleEpoch):
						t.Fatalf("event %d %s: rejection %v is not ErrStaleEpoch", ev, what, err)
					}
					if !reflect.DeepEqual(tab.rows, before) {
						t.Fatalf("event %d %s: admit changed the table", ev, what)
					}
				}

				for sh, a := range tab.rows {
					if a != ref.rows[sh] {
						t.Fatalf("event %d %s: shard %d is %+v, model %+v", ev, what, sh, a, ref.rows[sh])
					}
					if a.epoch < before[sh].epoch {
						t.Fatalf("event %d %s: shard %d epoch fell %d → %d", ev, what, sh, before[sh].epoch, a.epoch)
					}
					if a.holder >= 0 {
						key := grantKey{sh, a.epoch}
						if n, ok := granted[key]; ok && n != a.holder {
							t.Fatalf("event %d %s: shard %d epoch %d granted to node %d and node %d", ev, what, sh, a.epoch, n, a.holder)
						}
						granted[key] = a.holder
					}
					// Exhaustively: which (node, epoch) pairs pass the fence?
					admitted := 0
					for n := 0; n <= modelNodes; n++ {
						for e := a.epoch - 1; e <= a.epoch+1; e++ {
							if tab.admit(n, sh, slice, e) == nil {
								admitted++
							}
						}
					}
					want := 0
					if a.holder >= 0 {
						want = 1
					}
					if admitted != want {
						t.Fatalf("event %d %s: shard %d (%+v) admits %d (node, epoch) pairs, want %d", ev, what, sh, a, admitted, want)
					}
				}
			}
			if !reflect.DeepEqual(tab.epochs(), epochsOf(ref)) {
				t.Fatalf("epochs() = %v, model %v", tab.epochs(), epochsOf(ref))
			}
		})
	}
}

func epochsOf(m *leaseModel) []uint64 {
	out := make([]uint64, modelShards)
	for sh := range out {
		out[sh] = m.rows[sh].epoch
	}
	return out
}
