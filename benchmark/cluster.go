package main

import (
	"fmt"
	"strings"
	"time"

	"dgc/internal/admin"
	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/node"
	"dgc/internal/obs"
	"dgc/internal/snapshot"
	"dgc/internal/trace"
)

// opTimeout bounds every wait on the program under test: a link, invoke or
// probe that takes longer is counted as a failed operation.
const opTimeout = 5 * time.Second

// cluster is an in-process N-node loopback-TCP cluster assembled the way
// cmd/dgc-node assembles one node: admin.StartNode with batch-detect on,
// aggregate off, membership on and StartNode's default journal.
type cluster struct {
	sp    *spec
	names []ids.NodeID
	sups  []*admin.Supervisor
	rts   []*node.LiveRuntime
	set   *obs.Set
}

type clusterOpts struct {
	// driven leaves the runtime's daemon intervals at 0: the traced pass
	// issues the same schedule itself so it can put a span around each call.
	driven bool
	// disableDGC is the Table 1 control: plain RMI without stub/scion work.
	disableDGC bool
}

func startCluster(sp *spec, o clusterOpts) (*cluster, error) {
	c := &cluster{sp: sp, set: obs.NewSet()}
	for i := 0; i < sp.Nodes; i++ {
		ns := admin.NodeSpec{ID: ids.NodeID(string(rune('A' + i))), Listen: "127.0.0.1:0"}
		ns.Config = node.Config{
			CandidateMinAge:  sp.Age,
			CallTimeoutTicks: 40,
			BatchDetection:   node.Bool(true),
			Membership:       &membership.Config{},
			DisableDGC:       o.disableDGC,
			Metrics:          c.set,
		}
		if sp.Binary {
			ns.Config.Codec = snapshot.BinaryCodec{}
		}
		ns.Runtime = node.RuntimeConfig{Tick: sp.Tick}
		if !o.driven {
			ns.Runtime.LGCInterval = time.Duration(sp.LGCEvery) * sp.Tick
			ns.Runtime.SnapshotInterval = time.Duration(sp.SnapEvery) * sp.Tick
			ns.Runtime.DetectInterval = time.Duration(sp.DetectEvery) * sp.Tick
		}
		sup, err := admin.StartNode(ns)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("start node %s: %w", ns.ID, err)
		}
		c.names = append(c.names, ns.ID)
		c.sups = append(c.sups, sup)
		c.rts = append(c.rts, sup.Runtime())
	}
	for i, sup := range c.sups {
		for j, peer := range c.sups {
			if i != j {
				sup.AddPeer(c.names[j], peer.Addr())
			}
		}
	}
	return c, nil
}

func (c *cluster) stop() {
	for _, sup := range c.sups {
		_ = sup.Stop()
	}
}

func (c *cluster) journal(i int) *trace.Log { return c.sups[i].Journal() }

// journalTotal is the number of journal events the cluster has emitted.
func (c *cluster) journalTotal() uint64 {
	var n uint64
	for i := range c.sups {
		n += c.journal(i).Total()
	}
	return n
}

// counters sums every metric family of obs.Set.Dump over the cluster's nodes.
func (c *cluster) counters() map[string]float64 {
	out := make(map[string]float64)
	for k, v := range c.set.Dump() {
		if i := strings.IndexByte(k, '{'); i >= 0 {
			k = k[:i]
		}
		out[k] += v
	}
	return out
}

// membersAlive reports whether every node sees every member alive.
func (c *cluster) membersAlive() bool {
	for _, rt := range c.rts {
		ms := rt.Members()
		if len(ms) != len(c.rts) {
			return false
		}
		for _, m := range ms {
			if m.State != membership.Alive {
				return false
			}
		}
	}
	return true
}

// link makes holder (an object on node from) hold target over the wire
// (AcquireRemote, then Store on the ack), and waits for it.
func (c *cluster) link(from int, holder ids.ObjID, target ids.GlobalRef) error {
	done := make(chan bool, 1)
	err := c.rts[from].AcquireRemote(target, func(m node.Mutator, ok bool) {
		done <- ok && m.Store(holder, target) == nil
	})
	if err != nil {
		return err
	}
	select {
	case ok := <-done:
		if !ok {
			return fmt.Errorf("link %s:%d -> %v refused", c.names[from], holder, target)
		}
		return nil
	case <-time.After(opTimeout):
		return fmt.Errorf("link %s:%d -> %v timed out", c.names[from], holder, target)
	}
}
