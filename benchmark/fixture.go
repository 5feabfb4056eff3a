package main

import (
	"fmt"

	"dgc/internal/ids"
	"dgc/internal/node"
)

// fixture is the live data a workload starts from — ballast, live cross-node
// references, rooted control rings and the invoke client's holder and target
// — together with the ground truth the oracle checks it against at the end.
type fixture struct {
	live   [][]ids.ObjID // per node: objects that must never be reclaimed
	scions []int         // per node: scions that must remain after the drain
	stubs  []int         // per node: stubs that must remain after the drain
	cross  []ids.RefID   // live cross-node references (their scions must remain)

	holder ids.ObjID     // client's rooted holder on node 0
	target ids.GlobalRef // client's invoke target on node 1
}

const ballastChain = 50

// buildFixture populates a fresh cluster. It is the timed part of set-up
// together with startCluster.
func buildFixture(c *cluster, seed int64) (*fixture, error) {
	sp := c.sp
	in := newInputs(seed, sp.Name+"/fixture")
	f := &fixture{
		live:   make([][]ids.ObjID, sp.Nodes),
		scions: make([]int, sp.Nodes),
		stubs:  make([]int, sp.Nodes),
	}
	scionSeen := map[ids.RefID]bool{}
	stubSeen := map[ids.RefID]bool{} // keyed like a scion; Src names the holding node
	addRef := func(from int, target ids.GlobalRef) {
		ref := ids.RefID{Src: c.names[from], Dst: target}
		if !scionSeen[ref] {
			scionSeen[ref] = true
			f.scions[c.nodeIndex(target.Node)]++
		}
		if !stubSeen[ref] {
			stubSeen[ref] = true
			f.stubs[from]++
		}
	}

	// Ballast: rooted chains with seeded back-links, built in one mutator
	// section per node.
	ballast := make([][]ids.ObjID, sp.Nodes)
	for n := 0; n < sp.Nodes && sp.Ballast > 0; n++ {
		var berr error
		err := c.rts[n].With(func(m node.Mutator) {
			objs := make([]ids.ObjID, 0, sp.Ballast)
			for len(objs) < sp.Ballast {
				base := len(objs)
				for k := 0; k < ballastChain && len(objs) < sp.Ballast; k++ {
					o := m.Alloc(in.payload())
					objs = append(objs, o)
					if k == 0 {
						berr = firstErr(berr, m.Root(o))
						continue
					}
					berr = firstErr(berr, m.Link(objs[base+k-1], o))
					if in.rng.Intn(2) == 0 {
						back := base + k - 1 - in.rng.Intn(min(k, 8))
						berr = firstErr(berr, m.Link(o, objs[back]))
					}
				}
			}
			ballast[n] = objs
		})
		if err = firstErr(err, berr); err != nil {
			return nil, fmt.Errorf("ballast on %s: %w", c.names[n], err)
		}
		f.live[n] = append(f.live[n], ballast[n]...)
	}
	for n := 0; n < sp.Nodes && sp.Ballast > 0; n++ {
		for k := 0; k < sp.CrossLinks; k++ {
			to := (n + 1 + in.rng.Intn(sp.Nodes-1)) % sp.Nodes
			holder := ballast[n][in.rng.Intn(len(ballast[n]))]
			target := ids.GlobalRef{Node: c.names[to], Obj: ballast[to][in.rng.Intn(len(ballast[to]))]}
			if err := c.link(n, holder, target); err != nil {
				return nil, err
			}
			addRef(n, target)
			f.cross = append(f.cross, ids.RefID{Src: c.names[n], Dst: target})
		}
	}

	// Control rings: the garbage rings' shape with one head left rooted.
	for r := 0; r < controlRings; r++ {
		order := in.ringOrder(sp.Nodes, sp.ringLen())
		heads, tails, err := c.allocRing(order, sp.chain(), in, f)
		if err != nil {
			return nil, err
		}
		for p, n := range order {
			next := (p + 1) % len(order)
			target := ids.GlobalRef{Node: c.names[order[next]], Obj: heads[next]}
			if err := c.link(n, tails[p], target); err != nil {
				return nil, err
			}
			addRef(n, target)
			f.cross = append(f.cross, ids.RefID{Src: c.names[n], Dst: target})
		}
		for p, n := range order[1:] {
			head := heads[p+1]
			if err := c.rts[n].With(func(m node.Mutator) { m.Unroot(head) }); err != nil {
				return nil, err
			}
		}
	}

	// Invoke client: a rooted holder on node 0 that holds a rooted target on
	// node 1.
	for n := 0; n < 2; n++ {
		var obj ids.ObjID
		var rerr error
		err := c.rts[n].With(func(m node.Mutator) {
			obj = m.Alloc(in.payload())
			rerr = m.Root(obj)
		})
		if err = firstErr(err, rerr); err != nil {
			return nil, err
		}
		f.live[n] = append(f.live[n], obj)
		if n == 0 {
			f.holder = obj
		} else {
			f.target = ids.GlobalRef{Node: c.names[1], Obj: obj}
		}
	}
	if err := c.link(0, f.holder, f.target); err != nil {
		return nil, err
	}
	addRef(0, f.target)
	return f, nil
}

// allocRing allocates one chain per ring position, heads rooted, and records
// the objects as live in f.
func (c *cluster) allocRing(order []int, chain int, in *inputs, f *fixture) (heads, tails []ids.ObjID, err error) {
	heads = make([]ids.ObjID, len(order))
	tails = make([]ids.ObjID, len(order))
	for p, n := range order {
		var aerr error
		err := c.rts[n].With(func(m node.Mutator) {
			prev := ids.ObjID(0)
			for k := 0; k < chain; k++ {
				o := m.Alloc(in.payload())
				f.live[n] = append(f.live[n], o)
				if k == 0 {
					heads[p] = o
					aerr = firstErr(aerr, m.Root(o))
				} else {
					aerr = firstErr(aerr, m.Link(prev, o))
				}
				prev = o
			}
			tails[p] = prev
		})
		if err = firstErr(err, aerr); err != nil {
			return nil, nil, err
		}
	}
	return heads, tails, nil
}

func (c *cluster) nodeIndex(id ids.NodeID) int {
	for i, n := range c.names {
		if n == id {
			return i
		}
	}
	panic("benchmark: unknown node " + string(id))
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}
