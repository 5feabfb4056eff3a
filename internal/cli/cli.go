// Package cli implements dgcctl, the operator CLI over the admin control
// plane (internal/admin). Every command talks to running clusters purely
// through the versioned JSON admin API — one server per node, as
// cmd/dgc-node -metrics-addr and 'dgcctl up' serve it — so one binary drives
// either. The entry point is testable: Run takes argv and writers and
// returns an exit code, with no global state.
package cli

import (
	"context"
	"fmt"
	"io"
)

const usage = `dgcctl drives a running dgc cluster through its admin API.

Usage: dgcctl <command> [flags]

Commands:
  status     cluster overview: per-node state, tables, detection counters
  tables     one node's scion and stub tables
  detect     force cycle detection (a full round, or one scion with -scion)
  tail       follow the live event journal of every node, merged
  trace      reconstruct one detection's causal span tree across nodes
  inject     fault injection: kill, restart, delay, drop, partition, heal
  members    per-node views of the gossip membership directory
  join       seed a new member (name=addr) into every running node
  drain      migrate a node's exported references, then retire it
  up         start a local TCP cluster from a declarative spec file

Auth:
  Servers started with -admin-token (or $DGC_ADMIN_TOKEN) require a bearer
  token: pass -token, or set DGC_ADMIN_TOKEN for dgcctl too.

Endpoints:
  Commands find admin endpoints via -e (comma-separated [name=]host:port),
  the DGCCTL_ENDPOINTS environment variable (same syntax), or an endpoints
  file written by 'dgcctl up' (-endpoints-file, default dgcctl.endpoints).

Run 'dgcctl <command> -h' for command flags.
`

// Run executes one dgcctl invocation: args is argv without the program name.
func Run(args []string, stdout, stderr io.Writer) int {
	return RunContext(context.Background(), args, stdout, stderr)
}

// RunContext is Run with cancellation: long-running commands (up, tail,
// detect -follow) stop cleanly when ctx is done.
func RunContext(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "status":
		return cmdStatus(rest, stdout, stderr)
	case "tables":
		return cmdTables(rest, stdout, stderr)
	case "detect":
		return cmdDetect(ctx, rest, stdout, stderr)
	case "tail":
		return cmdTail(ctx, rest, stdout, stderr)
	case "trace":
		return cmdTrace(ctx, rest, stdout, stderr)
	case "inject":
		return cmdInject(rest, stdout, stderr)
	case "members":
		return cmdMembers(rest, stdout, stderr)
	case "join":
		return cmdJoin(rest, stdout, stderr)
	case "drain":
		return cmdDrain(rest, stdout, stderr)
	case "up":
		return cmdUp(ctx, rest, stdout, stderr)
	case "help", "-h", "--help", "-help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "dgcctl: unknown command %q\n\n%s", cmd, usage)
		return 2
	}
}
