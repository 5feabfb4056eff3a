// TCP cluster: three nodes on real sockets (loopback), built and collected
// entirely through the remote-invocation API — no simulation harness and no
// manual GC driving.
//
// Each node runs a LiveRuntime: a mailbox goroutine whose one wall-clock
// ticker runs the local collector, graph summarization and cycle detection
// on the ticks Config names. The
// program creates a three-process distributed cycle through RPC alone
// (acquire, alloc-child, store), verifies reference listing keeps it alive,
// drops the root, and simply waits while the periodic daemons detect and
// reclaim the cycle over the wire.
//
//	go run ./examples/tcpcluster [-metrics-addr :9090]
//
// With -metrics-addr the program serves the admin control plane for all
// three nodes while the run is in flight: collector and transport metrics at
// /metrics, structural diagnostics (tables, inflight detections with causal
// trace ids, mailbox stats) at /debug/dgc, and the /api/v1 operator API that
// dgcctl drives.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"dgc"
	"dgc/internal/admin"
)

func main() {
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/dgc for the whole cluster")
	pprofMode := flag.String("pprof", "auto", "serve /debug/pprof on the metrics address: on, off, or auto (loopback only)")
	flag.Parse()

	// One metric set spans the whole in-process cluster: each node publishes
	// under its own node label, so /metrics shows all three side by side.
	metrics := dgc.NewMetricsSet()

	// Start three nodes on ephemeral loopback ports.
	names := []dgc.NodeID{"A", "B", "C"}
	eps := make(map[dgc.NodeID]*dgc.TCPEndpoint, 3)
	for _, n := range names {
		ep, err := dgc.ListenTCP(n, "127.0.0.1:0", nil)
		if err != nil {
			log.Fatal(err)
		}
		defer ep.Close()
		ep.SetMetrics(dgc.NewTransportMetrics(metrics.Node(string(n))))
		eps[n] = ep
	}
	for _, n := range names {
		for _, p := range names {
			if n != p {
				eps[n].AddPeer(p, eps[p].Addr())
			}
		}
	}
	cfg := dgc.Config{
		CallTimeoutTicks: 200, CandidateMinAge: 2, Metrics: metrics,
		LGCEvery: 2, SnapshotEvery: 4, DetectEvery: 4, // in 25 ms ticks
	}
	// One journal spans the cluster (like the metric set): /api/v1/events on
	// the admin listener then streams every node's detection lifecycle.
	cfg.Trace = dgc.NewTraceLog(8192)
	rcfg := dgc.RuntimeConfig{Tick: 25 * time.Millisecond}
	nodes := make(map[dgc.NodeID]*dgc.LiveRuntime, 3)
	for _, n := range names {
		nodes[n] = dgc.NewLiveRuntime(n, eps[n], cfg, rcfg)
		defer nodes[n].Close()
		fmt.Printf("node %s listening on %s\n", n, eps[n].Addr())
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listen %s: %v", *metricsAddr, err)
		}
		defer ln.Close()
		srv := admin.NewServer(metrics)
		if admin.PprofEnabled(*pprofMode, *metricsAddr) {
			srv.EnablePprof()
		}
		for _, n := range names {
			srv.AddNode(nodes[n])
		}
		go func() { _ = http.Serve(ln, srv.Handler()) }()
		fmt.Printf("metrics on http://%s/metrics (events at /api/v1/events)\n", ln.Addr())
	}

	// Each node publishes one anchor object; A's anchor is rooted.
	anchors := make(map[dgc.NodeID]dgc.GlobalRef, 3)
	for _, n := range names {
		var obj dgc.ObjID
		if err := nodes[n].With(func(m dgc.Mutator) {
			obj = m.Alloc([]byte("anchor-" + string(n)))
		}); err != nil {
			log.Fatal(err)
		}
		anchors[n] = dgc.GlobalRef{Node: n, Obj: obj}
	}
	if err := nodes["A"].With(func(m dgc.Mutator) {
		if err := m.Root(anchors["A"].Obj); err != nil {
			log.Fatal(err)
		}
	}); err != nil {
		log.Fatal(err)
	}

	// Build the ring A -> B -> C -> A through acquire + store RPCs.
	link := func(from, to dgc.NodeID) {
		done := make(chan bool, 1)
		target := anchors[to]
		holder := anchors[from].Obj
		if err := nodes[from].AcquireRemote(target, func(m dgc.Mutator, ok bool) {
			if ok {
				if err := m.Store(holder, target); err != nil {
					log.Println(err)
					ok = false
				}
			}
			done <- ok
		}); err != nil {
			log.Fatal(err)
		}
		if !waitBool(done) {
			log.Fatalf("linking %s -> %s failed", from, to)
		}
	}
	link("A", "B")
	link("B", "C")
	link("C", "A")
	fmt.Println("distributed ring A -> B -> C -> A built over TCP")

	// Let a few periodic collections pass: the ring survives (A's anchor is
	// rooted, and scions protect B and C).
	time.Sleep(200 * time.Millisecond)
	fmt.Printf("after local GCs: %d objects alive (want 3)\n", totalObjects(nodes))

	// Drop the root: the ring is now a distributed garbage cycle that
	// reference listing cannot reclaim. The wall-clock daemons take it from
	// here — no manual GC driving.
	if err := nodes["A"].With(func(m dgc.Mutator) { m.Unroot(anchors["A"].Obj) }); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	deadline := start.Add(15 * time.Second)
	for totalObjects(nodes) > 0 {
		if time.Now().After(deadline) {
			log.Fatalf("cycle not reclaimed in time: %d objects left", totalObjects(nodes))
		}
		time.Sleep(25 * time.Millisecond)
	}
	fmt.Printf("distributed cycle reclaimed over TCP in %v ✔\n", time.Since(start).Round(time.Millisecond))

	var found uint64
	for _, n := range nodes {
		found += n.Stats().Detector.CyclesFound
	}
	fmt.Printf("cycle detections completed: %d\n", found)
}

func totalObjects(nodes map[dgc.NodeID]*dgc.LiveRuntime) int {
	total := 0
	for _, n := range nodes {
		total += n.NumObjects()
	}
	return total
}

func waitBool(ch chan bool) bool {
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		return false
	}
}
