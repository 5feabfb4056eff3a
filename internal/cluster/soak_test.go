package cluster

import (
	"sync"
	"testing"
	"time"

	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/transport"
)

// TestAsyncSoak exercises the whole stack CONCURRENTLY: every node ticks
// its GC daemons from its own goroutine while separate mutator goroutines
// perform RPC churn, with the in-proc network pumped by yet another
// goroutine. This is the concurrency regime of the TCP deployment (handler
// calls arrive from arbitrary goroutines); run under -race it validates the
// node's locking discipline end to end.
func TestAsyncSoak(t *testing.T) {
	cfg := node.Config{
		LGCEvery:         2,
		SnapshotEvery:    3,
		DetectEvery:      3,
		CallTimeoutTicks: 50,
	}
	net := transport.NewNetwork(1)
	names := []ids.NodeID{"A", "B", "C"}
	nodes := make(map[ids.NodeID]*node.Node, len(names))
	for _, n := range names {
		nodes[n] = node.New(n, net.Endpoint(n), cfg)
	}

	// B hosts a rooted service; A and C hold references to it.
	var service ids.ObjID
	nodes["B"].With(func(m node.Mutator) {
		service = m.Alloc(nil)
		if err := m.Root(service); err != nil {
			t.Error(err)
		}
	})
	serviceRef := ids.GlobalRef{Node: "B", Obj: service}
	for _, n := range []ids.NodeID{"A", "C"} {
		var holder ids.ObjID
		nodes[n].With(func(m node.Mutator) {
			holder = m.Alloc(nil)
			if err := m.Root(holder); err != nil {
				t.Error(err)
			}
		})
		if err := nodes["B"].EnsureScionFor(n, service); err != nil {
			t.Fatal(err)
		}
		if err := nodes[n].HoldRemote(holder, serviceRef); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Network pump.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				net.Drain(0)
				return
			default:
				if !net.Step() {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
	}()

	// GC tickers.
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					n.Tick()
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}

	// Mutators: churn alloc-child/drop against the service.
	var churns sync.Map
	for _, n := range []ids.NodeID{"A", "C"} {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			count := 0
			for {
				select {
				case <-stop:
					churns.Store(n, count)
					return
				default:
				}
				err := nodes[n].Invoke(serviceRef, "alloc-child", nil,
					func(m node.Mutator, r node.Reply) {
						if r.OK && len(r.Returns) == 1 {
							_ = m.Invoke(serviceRef, "drop", r.Returns, nil)
						}
					})
				if err != nil {
					t.Errorf("%s: %v", n, err)
					return
				}
				count++
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiesce deterministically and verify convergence: only the three
	// rooted objects survive.
	net.Drain(0)
	for round := 0; round < 30; round++ {
		for _, id := range names {
			nodes[id].RunLGC()
		}
		net.Drain(0)
		for _, id := range names {
			if err := nodes[id].Summarize(); err != nil {
				t.Fatal(err)
			}
			nodes[id].RunDetection()
		}
		net.Drain(0)
	}
	total := 0
	for _, n := range nodes {
		total += n.NumObjects()
	}
	if total != 3 {
		t.Fatalf("objects after soak = %d, want 3 rooted survivors", total)
	}
	minChurn := 0
	churns.Range(func(_, v any) bool {
		minChurn += v.(int)
		return true
	})
	if minChurn == 0 {
		t.Fatal("mutators performed no work")
	}
	if nodes["B"].Metrics().ObjectsSwept.Value() == 0 {
		t.Fatal("no garbage was collected during the soak")
	}
}
