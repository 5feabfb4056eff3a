// dgc-node runs one process of the distributed system as a TCP daemon: an
// object heap with its local collector, reference-listing acyclic DGC and
// distributed cycle detector, driven by the wall-clock LiveRuntime (a
// mailbox goroutine whose one ticker says Tick — no manual tick loop).
//
// Usage:
//
//	dgc-node -id P1 -listen :7001 -peers P2=host2:7002,P3=host3:7003
//	         [-tick 250ms] [-lgc-every 2] [-snapshot-every 4] [-detect-every 4]
//	         [-snapshot-dir DIR] [-codec binary|reflect] [-seed-objects N]
//	         [-state-file FILE] [-metrics-addr :9090]
//
// With -metrics-addr the daemon serves the full admin control plane:
// Prometheus text at /metrics, versioned JSON diagnostics at /debug/dgc, and
// the /api/v1 operator API (status, tables, forced detection with trace ids,
// snapshot/restore, fault injection) that the dgcctl CLI drives.
//
// The -*-every flags count ticks (e.g. -tick 250ms -lgc-every 2 runs the
// local collector on every second tick, 500ms apart); daemons due on the
// same tick run in order: local GC, summarize, detect. On the first
// SIGINT/SIGTERM the daemon shuts down gracefully — collector state is
// flushed to -state-file (from which a restart resumes: heap, stub/scion
// tables with invocation counters, sequence numbers) and the transport
// closes cleanly. A second signal forces immediate exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dgc"
	"dgc/internal/admin"
)

func main() {
	var (
		id            = flag.String("id", "", "node identifier (required)")
		listen        = flag.String("listen", ":0", "listen address")
		peersFlag     = flag.String("peers", "", "comma-separated name=addr peer list")
		tick          = flag.Duration("tick", 250*time.Millisecond, "tick period")
		lgcEvery      = flag.Uint64("lgc-every", 2, "run the local GC every N ticks")
		snapEvery     = flag.Uint64("snapshot-every", 4, "summarize every N ticks")
		detectEvery   = flag.Uint64("detect-every", 4, "run cycle detection every N ticks")
		candidateAge  = flag.Uint64("candidate-age", 4, "scion quiescence ticks before candidacy")
		snapshotDir   = flag.String("snapshot-dir", "", "write serialized snapshots here")
		codecName     = flag.String("codec", "", "snapshot codec: binary or reflect")
		seedObjects   = flag.Int("seed-objects", 0, "allocate N rooted demo objects at startup")
		statsEvery    = flag.Int("stats-every", 10, "print stats every N ticks (0 = never)")
		membershipOn  = flag.Bool("membership", true, "gossip membership directory with lease-guarded dead-node reclamation (-membership=false for a static cluster)")
		callTimeoutTk = flag.Uint64("call-timeout", 40, "RPC timeout in ticks")
		stateFile     = flag.String("state-file", "", "persist collector state here: loaded at startup if present, saved on shutdown")
		metricsAddr   = flag.String("metrics-addr", "", "serve the admin API (Prometheus /metrics, /debug/dgc, /api/v1) on this address")
		adminToken    = flag.String("admin-token", os.Getenv("DGC_ADMIN_TOKEN"), "bearer token required on /api/v1 and /debug routes (default $DGC_ADMIN_TOKEN; empty = open)")
		pprofMode     = flag.String("pprof", "auto", "serve /debug/pprof on the admin address: on, off, or auto (loopback only)")
	)
	flag.Parse()
	if *id == "" {
		log.Fatal("dgc-node: -id is required")
	}

	spec := admin.NodeSpec{
		ID:          dgc.NodeID(*id),
		Listen:      *listen,
		Peers:       map[dgc.NodeID]string{},
		StateFile:   *stateFile,
		SeedObjects: *seedObjects,
	}
	if *peersFlag != "" {
		for _, kv := range strings.Split(*peersFlag, ",") {
			name, addr, ok := strings.Cut(kv, "=")
			if !ok {
				log.Fatalf("dgc-node: malformed peer %q (want name=addr)", kv)
			}
			spec.Peers[dgc.NodeID(name)] = addr
		}
	}

	spec.Config = dgc.Config{
		CandidateMinAge:  *candidateAge,
		LGCEvery:         *lgcEvery,
		SnapshotEvery:    *snapEvery,
		DetectEvery:      *detectEvery,
		CallTimeoutTicks: *callTimeoutTk,
		SnapshotDir:      *snapshotDir,
	}
	if *membershipOn {
		spec.Config.Membership = &dgc.MembershipConfig{}
	}
	switch *codecName {
	case "":
	case "binary":
		spec.Config.Codec = dgc.BinaryCodec{}
	case "reflect":
		spec.Config.Codec = dgc.ReflectCodec{}
	default:
		log.Fatalf("dgc-node: unknown codec %q", *codecName)
	}
	if spec.Config.SnapshotDir != "" && spec.Config.Codec == nil {
		spec.Config.Codec = dgc.BinaryCodec{}
	}

	spec.Runtime = dgc.RuntimeConfig{Tick: *tick}

	hadState := false
	if *stateFile != "" {
		if _, err := os.Stat(*stateFile); err == nil {
			hadState = true
		}
	}
	sup, err := admin.StartNode(spec)
	if err != nil {
		log.Fatal(err)
	}
	if hadState {
		fmt.Printf("restored state from %s (%d objects)\n", *stateFile, sup.DebugSnapshot().Objects)
	} else if *seedObjects > 0 {
		fmt.Printf("seeded %d rooted objects\n", *seedObjects)
	}
	fmt.Printf("dgc-node %s listening on %s (%d peers)\n", *id, sup.Addr(), len(spec.Peers))

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("dgc-node: metrics listen %s: %v", *metricsAddr, err)
		}
		srv := admin.NewServer(sup.Metrics())
		srv.SetToken(*adminToken)
		if admin.PprofEnabled(*pprofMode, *metricsAddr) {
			srv.EnablePprof()
			fmt.Printf("pprof profiles on http://%s/debug/pprof/\n", ln.Addr())
		}
		srv.AddNode(sup)
		go func() { _ = http.Serve(ln, srv.Handler()) }()
		defer ln.Close()
		fmt.Printf("admin API on http://%s (metrics at /metrics, diagnostics at /debug/dgc, events at /api/v1/events)\n", ln.Addr())
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// The runtime drives itself; this loop only reports.
	var statsC <-chan time.Time
	if *statsEvery > 0 {
		t := time.NewTicker(time.Duration(*statsEvery) * *tick)
		defer t.Stop()
		statsC = t.C
	}
	for {
		select {
		case <-statsC:
			s := sup.Stats()
			snap := sup.DebugSnapshot()
			fmt.Printf("[%s t=%d] objects=%d scions=%d stubs=%d swept=%d detections=%d cycles=%d aborted=%d\n",
				*id, s.Clock, snap.Objects, snap.Scions, snap.Stubs,
				s.ObjectsSwept, s.Detector.Started, s.Detector.CyclesFound, s.Detector.Aborted)
		case got := <-sig:
			// Graceful: state flush + clean runtime/transport close. A second
			// signal while that is in flight forces exit.
			go func() {
				<-sig
				fmt.Println("\nsecond signal, forcing exit")
				os.Exit(1)
			}()
			s := sup.Stats()
			objects := sup.DebugSnapshot().Objects
			if err := sup.Stop(); err != nil {
				log.Printf("dgc-node: shutdown: %v", err)
			} else if *stateFile != "" {
				fmt.Printf("\nstate saved to %s\n", *stateFile)
			}
			fmt.Printf("dgc-node %s shut down on %v: %d objects, %d swept over %d ticks\n",
				*id, got, objects, s.ObjectsSwept, s.Clock)
			return
		}
	}
}
