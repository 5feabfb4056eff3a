package experiments

import (
	"fmt"
	"time"

	"dgc/internal/cluster"
	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/refs"
	"dgc/internal/snapshot"
)

// ---- lease ablation ---------------------------------------------------------
//
// The paper positions its acyclic collector as "a safe DGC (not a
// lease-based one)". This experiment quantifies the difference: a holder
// process goes silent (its stub-set messages are lost) for a number of
// rounds while STILL holding a live reference. Plain reference listing
// never deletes the scion. Leased reference listing is the node's own
// holder leases (refs.Table.ExpireHolder) without the membership gate that
// guards them in production: every applied stub set renews the holder's
// lease, and the owner expires the holder every tick, so silence alone
// outlasting the lease deletes the scion and reclaims a live object.

// LeaseRow reports one silence length's outcome for both collectors.
type LeaseRow struct {
	SilenceRounds   uint64
	LeaseDuration   uint64
	LeaseReclaimed  bool // live object lost under leases (unsafe)
	PlainReclaimed  bool // must always be false
	LeaseRenewalMsg uint64
}

// LeaseAblation runs the silence scenario for each silence length.
func LeaseAblation(silences []uint64, leaseDuration uint64) ([]LeaseRow, error) {
	rows := make([]LeaseRow, 0, len(silences))
	for _, silence := range silences {
		run := func(leased bool) (reclaimed bool, renewals uint64, err error) {
			// Owner P2 has one object referenced by holder P1 (rooted
			// there). The holder's LGC emits stub sets every round; during
			// the silence window they are all lost.
			owner := heap.New("P2")
			obj := owner.Alloc(nil)
			ownerTable := refs.NewTable("P2")
			ownerTable.EnsureScion("P1", obj.ID, 0)

			holder := heap.New("P1")
			h := holder.Alloc(nil)
			if err := holder.AddRoot(h.ID); err != nil {
				return false, 0, err
			}
			if err := holder.AddRemoteRef(h.ID, ids.GlobalRef{Node: "P2", Obj: obj.ID}); err != nil {
				return false, 0, err
			}
			holderTable := refs.NewTable("P1")
			holderTable.EnsureStub(ids.GlobalRef{Node: "P2", Obj: obj.ID})
			ownerTable.Renew("P1", 0)

			total := silence + leaseDuration + 4
			for now := uint64(1); now <= total; now++ {
				for _, ts := range holderTable.GenerateTargeted() {
					renewals++
					if now <= silence {
						continue // lost
					}
					ownerTable.ApplyStubSet("P1", ts.Seq, ts.Objs)
					ownerTable.Renew("P1", now)
				}
				if leased {
					ownerTable.ExpireHolder("P1", now, leaseDuration)
				}
				// Owner LGC: sweep if the scion is gone.
				if !ownerTable.HasScion("P1", obj.ID) {
					owner.Delete(obj.ID)
				}
			}
			return !owner.Contains(obj.ID), renewals, nil
		}
		leaseReclaimed, renewals, err := run(true)
		if err != nil {
			return nil, err
		}
		plainReclaimed, _, err := run(false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LeaseRow{
			SilenceRounds:   silence,
			LeaseDuration:   leaseDuration,
			LeaseReclaimed:  leaseReclaimed,
			PlainReclaimed:  plainReclaimed,
			LeaseRenewalMsg: renewals,
		})
	}
	return rows, nil
}

// ---- mutator disruption -------------------------------------------------------
//
// §4: "The most relevant performance results ... are those related to
// phases critical to applications performance: i) stub/scion creation ...
// and ii) snapshot serialization. These phases could delay and potentially
// disrupt the mutator." Table 1 covers (i); this experiment covers (ii):
// the pause a snapshot imposes, per codec, against the invocation latency
// the mutator sees.

// DisruptionRow reports one codec's snapshot pause on a given heap size.
type DisruptionRow struct {
	Codec         string // "none", "binary", "reflect"
	HeapObjects   int
	SnapshotPause time.Duration // one Summarize() call
	InvokeLatency time.Duration // mean RPC round trip between snapshots
}

// Disruption measures snapshot pauses and invocation latency for each
// snapshot codec on a server with heapObjects live objects.
func Disruption(heapObjects, invokes int) ([]DisruptionRow, error) {
	if invokes < 1 {
		invokes = 1
	}
	codecs := []struct {
		name  string
		codec snapshot.Codec
	}{
		{"none", nil},
		{"binary", snapshot.BinaryCodec{}},
		{"reflect", snapshot.ReflectCodec{}},
	}
	var rows []DisruptionRow
	for _, cd := range codecs {
		serverCfg := node.Config{Codec: cd.codec}
		c := cluster.New(1, node.Config{})
		client := c.Add("client", node.Config{})
		server := c.Add("server", serverCfg)

		var anchor ids.ObjID
		server.With(func(m node.Mutator) {
			anchor = m.Alloc(nil)
			if err := m.Root(anchor); err != nil {
				panic(err)
			}
			prev := anchor
			for i := 1; i < heapObjects; i++ {
				o := m.Alloc(nil)
				if err := m.Link(prev, o); err != nil {
					panic(err)
				}
				prev = o
			}
		})
		var holder ids.ObjID
		client.With(func(m node.Mutator) {
			holder = m.Alloc(nil)
			if err := m.Root(holder); err != nil {
				panic(err)
			}
		})
		if err := c.Connect("client", holder, "server", anchor); err != nil {
			return nil, err
		}
		target := ids.GlobalRef{Node: "server", Obj: anchor}

		// Warm-up.
		if err := server.Summarize(); err != nil {
			return nil, err
		}

		start := time.Now()
		if err := server.Summarize(); err != nil {
			return nil, err
		}
		pause := time.Since(start)

		start = time.Now()
		for i := 0; i < invokes; i++ {
			ok := false
			if err := client.Invoke(target, "noop", nil, func(_ node.Mutator, r node.Reply) { ok = r.OK }); err != nil {
				return nil, err
			}
			c.Settle()
			if !ok {
				return nil, fmt.Errorf("experiments: disruption invoke failed")
			}
		}
		lat := time.Since(start) / time.Duration(invokes)

		rows = append(rows, DisruptionRow{
			Codec:         cd.name,
			HeapObjects:   heapObjects,
			SnapshotPause: pause,
			InvokeLatency: lat,
		})
	}
	return rows, nil
}
