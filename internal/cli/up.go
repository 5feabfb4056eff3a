package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dgc/internal/admin"
	"dgc/internal/ids"
	"dgc/internal/node"
)

func cmdUp(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	// up creates endpoints rather than resolving them, so it registers its
	// own flag set without the shared -e/-endpoints-file resolution pair.
	fs := flag.NewFlagSet("dgcctl up", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specFile := fs.String("f", "", "cluster spec file, YAML subset (required)")
	endpointsOut := fs.String("endpoints-file", "dgcctl.endpoints", "write 'name addr' admin endpoints here for other dgcctl commands")
	adminToken := fs.String("admin-token", os.Getenv("DGC_ADMIN_TOKEN"), "require this bearer token on every admin API (default $DGC_ADMIN_TOKEN; empty = open)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specFile == "" {
		fmt.Fprintln(stderr, "dgcctl up: -f cluster spec is required")
		return 2
	}
	text, err := os.ReadFile(*specFile)
	if err != nil {
		return fail(stderr, err)
	}
	spec, err := admin.ParseClusterSpec(text)
	if err != nil {
		return fail(stderr, err)
	}
	cl, err := startCluster(spec, *adminToken, stdout, stderr)
	if err != nil {
		return fail(stderr, err)
	}
	defer cl.stop(stdout)

	if err := cl.writeEndpoints(*endpointsOut); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "cluster up: %d nodes, endpoints in %s\n", len(cl.sups), *endpointsOut)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-ctx.Done():
	case s := <-sig:
		fmt.Fprintf(stdout, "\nreceived %v, shutting down\n", s)
	}
	return 0
}

// liveCluster is one 'dgcctl up' process: per-node supervisors, each with
// its own admin server and HTTP listener.
type liveCluster struct {
	sups      []*admin.Supervisor
	admins    []string // concrete admin addresses, index-aligned with sups
	listeners []net.Listener
	servers   []*http.Server
}

// startCluster resolves the spec, starts every node, wires the peer mesh
// once the ephemeral transport ports are known, serves one admin API per
// node, and seeds the demo ring when requested.
func startCluster(spec *admin.ClusterSpec, adminToken string, stdout, stderr io.Writer) (*liveCluster, error) {
	specs, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	cl := &liveCluster{}
	failure := func(err error) (*liveCluster, error) {
		cl.stop(io.Discard)
		return nil, err
	}
	for _, ns := range specs {
		sup, err := admin.StartNode(ns)
		if err != nil {
			return failure(fmt.Errorf("start %s: %w", ns.ID, err))
		}
		cl.sups = append(cl.sups, sup)
	}
	// Ephemeral ports are now concrete: wire the full mesh.
	for _, a := range cl.sups {
		for _, b := range cl.sups {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	// One admin server per node, on the node's declared admin address.
	for i, sup := range cl.sups {
		adminAddr := spec.Nodes[i].Admin
		if adminAddr == "" {
			adminAddr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", adminAddr)
		if err != nil {
			return failure(fmt.Errorf("admin listen %s for %s: %w", adminAddr, sup.ID(), err))
		}
		srv := admin.NewServer(sup.Metrics())
		srv.SetToken(adminToken)
		srv.AddNode(sup)
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		cl.listeners = append(cl.listeners, ln)
		cl.servers = append(cl.servers, hs)
		cl.admins = append(cl.admins, ln.Addr().String())
		fmt.Fprintf(stdout, "node %s: transport %s, admin http://%s\n", sup.ID(), sup.Addr(), ln.Addr())
	}
	if spec.DemoRing == "rooted" || spec.DemoRing == "garbage" {
		if err := buildDemoRing(cl.sups, spec.DemoRing == "rooted"); err != nil {
			return failure(fmt.Errorf("demo ring: %w", err))
		}
		fmt.Fprintf(stdout, "demo ring built across %d nodes (%s)\n", len(cl.sups), spec.DemoRing)
	}
	return cl, nil
}

// buildDemoRing allocates one anchor per node and links them into an
// inter-node ring through the remote-invocation API (acquire + store), the
// same construction as examples/tcpcluster. With rooted=false the ring is
// left unrooted — the canonical distributed garbage cycle only the cycle
// detector can reclaim, ready for `dgcctl detect`.
func buildDemoRing(sups []*admin.Supervisor, rooted bool) error {
	if len(sups) < 2 {
		return fmt.Errorf("need at least 2 nodes, have %d", len(sups))
	}
	anchors := make([]ids.GlobalRef, len(sups))
	for i, sup := range sups {
		rt := sup.Runtime()
		if rt == nil {
			return fmt.Errorf("node %s is down", sup.ID())
		}
		var obj ids.ObjID
		if err := rt.With(func(m node.Mutator) {
			obj = m.Alloc([]byte("anchor-" + string(sup.ID())))
			// Anchors start rooted so local collectors can't sweep them
			// while the ring is being linked over the wire.
			if err := m.Root(obj); err != nil {
				panic(err) // fresh object: cannot fail
			}
		}); err != nil {
			return err
		}
		anchors[i] = ids.GlobalRef{Node: sup.ID(), Obj: obj}
	}
	for i, sup := range sups {
		target := anchors[(i+1)%len(sups)]
		holder := anchors[i].Obj
		done := make(chan error, 1)
		rt := sup.Runtime()
		if rt == nil {
			return fmt.Errorf("node %s is down", sup.ID())
		}
		if err := rt.AcquireRemote(target, func(m node.Mutator, ok bool) {
			if !ok {
				done <- fmt.Errorf("acquire %s from %s failed", target, m.Node())
				return
			}
			done <- m.Store(holder, target)
		}); err != nil {
			return err
		}
		select {
		case err := <-done:
			if err != nil {
				return err
			}
		case <-time.After(10 * time.Second):
			return fmt.Errorf("linking %s -> %s timed out", anchors[i], target)
		}
	}
	if !rooted {
		// Unroot every anchor: the ring becomes pure distributed cyclic
		// garbage (scions keep each node's anchor alive locally).
		for i, sup := range sups {
			rt := sup.Runtime()
			if rt == nil {
				return fmt.Errorf("node %s is down", sup.ID())
			}
			obj := anchors[i].Obj
			if err := rt.With(func(m node.Mutator) { m.Unroot(obj) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeEndpoints persists "name addr" lines other dgcctl commands resolve.
func (cl *liveCluster) writeEndpoints(path string) error {
	var b strings.Builder
	b.WriteString("# written by dgcctl up\n")
	for i, sup := range cl.sups {
		fmt.Fprintf(&b, "%s %s\n", sup.ID(), cl.admins[i])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// stop shuts the cluster down gracefully: admin servers first (no new
// operations), then each supervisor (state flush + clean transport close).
func (cl *liveCluster) stop(stdout io.Writer) {
	for _, hs := range cl.servers {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = hs.Shutdown(shutdownCtx)
		cancel()
	}
	for _, sup := range cl.sups {
		if err := sup.Stop(); err != nil {
			fmt.Fprintf(stdout, "stop %s: %v\n", sup.ID(), err)
		}
	}
	fmt.Fprintln(stdout, "cluster stopped")
}
