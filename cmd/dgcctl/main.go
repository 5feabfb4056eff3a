// dgcctl is the operator CLI for dgc clusters: status, table dumps, forced
// cycle detection with trace-id follow, the merged event journal and
// detection traces, fault injection (kill/restart/delay/drop/partition/heal),
// membership (members/join/drain), and a declarative cluster launcher
// (`dgcctl up -f cluster.yaml`). It drives any node serving the
// internal/admin JSON API: dgc-node daemons started with -metrics-addr, or
// the nodes of a cluster started by `dgcctl up` itself.
//
//	dgcctl up -f cluster.yaml &
//	dgcctl status
//	dgcctl detect -scion 'A->1@B' -follow
//	dgcctl inject kill -node B -recover 2s
//
// Run `dgcctl help` for the full command list.
package main

import (
	"os"

	"dgc/internal/cli"
)

func main() {
	os.Exit(cli.Run(os.Args[1:], os.Stdout, os.Stderr))
}
