package admin

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/snapshot"
)

// ClusterSpec is the declarative input to `dgcctl up`: a cluster header plus
// one entry per node. It is decoded from a YAML subset by ParseClusterSpec,
// which resolves every node's settings, and checked as a whole by Resolve.
type ClusterSpec struct {
	Name string
	// DemoRing seeds the canonical 3+-node demo topology: "none" (default),
	// "rooted" (an inter-node ring anchored by a root) or "garbage" (the same
	// ring unrooted — distributed cyclic garbage only the DCDA can reclaim).
	DemoRing string
	// StateDir, when set, gives every node a state file <dir>/<id>.state.
	StateDir string
	Nodes    []ClusterNode
}

// ClusterNode is one node entry in a ClusterSpec: where its admin API listens
// (default 127.0.0.1:0) and the NodeSpec its settings resolved to — built-in
// defaults, overlaid by the cluster section, overlaid by the node's own keys.
type ClusterNode struct {
	Admin string
	NodeSpec
}

// nodeDraft is what the settings table writes into: the NodeSpec under
// construction plus the values that only combine once every key has been
// applied (membership is a switch over several fields).
type nodeDraft struct {
	NodeSpec
	membership bool
	memb       membership.Config
}

// defaultDraft holds the built-in dgc-node defaults. The membership
// directory defaults ON for declarative clusters — `membership: false` is
// the escape hatch; the membership horizons left at zero take the membership
// package defaults.
func defaultDraft() nodeDraft {
	d := nodeDraft{membership: true}
	d.Runtime.Tick = 250 * time.Millisecond
	d.Config.LGCEvery = 2
	d.Config.SnapshotEvery = 4
	d.Config.DetectEvery = 4
	d.Config.CandidateMinAge = 4
	d.Config.CallTimeoutTicks = 40
	return d
}

// set builds a table entry: parse the value, store it where field points.
func set[T any](parse func(string) (T, error), field func(*nodeDraft) *T) func(*nodeDraft, string) error {
	return func(d *nodeDraft, v string) error {
		x, err := parse(v)
		if err == nil {
			*field(d) = x
		}
		return err
	}
}

func parseU64(v string) (uint64, error) { return strconv.ParseUint(v, 10, 64) }
func parseI64(v string) (int64, error)  { return strconv.ParseInt(v, 10, 64) }
func parseStr(v string) (string, error) { return v, nil }

func parseCodec(v string) (snapshot.Codec, error) {
	switch v {
	case "", "binary":
		return snapshot.BinaryCodec{}, nil
	case "reflect":
		return snapshot.ReflectCodec{}, nil
	}
	return nil, fmt.Errorf("unknown codec %q", v)
}

// settings is the whole per-node vocabulary of a cluster spec: every key that
// may appear in the cluster section (as a default) or under a node (as an
// override), with how its value is parsed and where it lands. An explicit
// zero is a value like any other (detect_every: 0 disables the detection
// daemon so only forced detections run). A key not listed here is an error.
var settings = map[string]func(*nodeDraft, string) error{
	"tick":             set(time.ParseDuration, func(d *nodeDraft) *time.Duration { return &d.Runtime.Tick }),
	"lgc_every":        set(parseU64, func(d *nodeDraft) *uint64 { return &d.Config.LGCEvery }),
	"snapshot_every":   set(parseU64, func(d *nodeDraft) *uint64 { return &d.Config.SnapshotEvery }),
	"detect_every":     set(parseU64, func(d *nodeDraft) *uint64 { return &d.Config.DetectEvery }),
	"candidate_age":    set(parseU64, func(d *nodeDraft) *uint64 { return &d.Config.CandidateMinAge }),
	"call_timeout":     set(parseU64, func(d *nodeDraft) *uint64 { return &d.Config.CallTimeoutTicks }),
	"aggregate_detect": set(strconv.ParseBool, func(d *nodeDraft) *bool { return &d.Config.AggregateDetection }),
	"broadcast_delete": set(strconv.ParseBool, func(d *nodeDraft) *bool { return &d.Config.Detector.BroadcastDelete }),
	"membership":       set(strconv.ParseBool, func(d *nodeDraft) *bool { return &d.membership }),
	"gossip_every":     set(parseU64, func(d *nodeDraft) *uint64 { return &d.memb.GossipEvery }),
	"suspect_after":    set(parseU64, func(d *nodeDraft) *uint64 { return &d.memb.SuspectAfter }),
	"dead_after":       set(parseU64, func(d *nodeDraft) *uint64 { return &d.memb.DeadAfter }),
	"lease_ticks":      set(parseU64, func(d *nodeDraft) *uint64 { return &d.memb.LeaseTicks }),
	"mailbox":          set(strconv.Atoi, func(d *nodeDraft) *int { return &d.Runtime.Mailbox }),
	"seed_objects":     set(strconv.Atoi, func(d *nodeDraft) *int { return &d.SeedObjects }),
	"codec":            set(parseCodec, func(d *nodeDraft) *snapshot.Codec { return &d.Config.Codec }),
	"snapshot_dir":     set(parseStr, func(d *nodeDraft) *string { return &d.Config.SnapshotDir }),
	"state_file":       set(parseStr, func(d *nodeDraft) *string { return &d.StateFile }),
	"fault_seed":       set(parseI64, func(d *nodeDraft) *int64 { return &d.FaultSeed }),
}

// setting is one `key: value` line of a spec.
type setting struct {
	key, val string
	line     int
}

// apply runs lines through the settings table, in file order (a repeated key:
// the last one wins).
func (d *nodeDraft) apply(lines []setting) error {
	for _, s := range lines {
		put, ok := settings[s.key]
		if !ok {
			return fmt.Errorf("line %d: unknown setting %q", s.line, s.key)
		}
		if err := put(d, s.val); err != nil {
			return fmt.Errorf("line %d: %s: %v", s.line, s.key, err)
		}
	}
	return nil
}

// finish combines the applied settings into the runnable NodeSpec. Peer maps
// are left to Resolve and, for live clusters, to Supervisor.AddPeer once the
// ephemeral ports are known.
func (d nodeDraft) finish() (NodeSpec, error) {
	if d.Runtime.Tick <= 0 {
		return NodeSpec{}, fmt.Errorf("node %s: tick must be positive", d.ID)
	}
	if d.membership {
		d.Config.Membership = &d.memb
	}
	if d.Config.SnapshotDir != "" && d.Config.Codec == nil {
		d.Config.Codec = snapshot.BinaryCodec{}
	}
	return d.NodeSpec, nil
}

// ParseClusterSpec decodes a cluster spec from YAML-subset text. The subset
// covers exactly what cluster files need — two top-level sections:
//
//	# comments and blank lines are ignored
//	cluster:
//	  tick: 50ms
//	  detect_every: 4
//	  demo_ring: garbage
//	  state_dir: /tmp/dgc
//	nodes:
//	  - id: A
//	    listen: 127.0.0.1:7001
//	    admin: 127.0.0.1:9001
//	  - id: B
//	    detect_every: 0        # per-node override
//
// No nesting beyond these two levels, no flow syntax, no anchors. Scalars
// only; quotes around values are stripped. The cluster section takes name,
// demo_ring, state_dir and any key of the settings table; a node takes id,
// listen, admin and any key of the settings table.
func ParseClusterSpec(text []byte) (*ClusterSpec, error) {
	var cluster []setting
	var nodes [][]setting
	section := ""
	var nodeIndent int
	for i, line := range strings.Split(string(text), "\n") {
		ln := i + 1
		line, _, _ = strings.Cut(line, "#")
		body := strings.TrimSpace(line)
		if body == "" {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " \t"))
		if indent == 0 {
			if body != "cluster:" && body != "nodes:" {
				return nil, fmt.Errorf("line %d: expected 'cluster:' or 'nodes:', got %q", ln, body)
			}
			section = body
			continue
		}
		if section == "" {
			return nil, fmt.Errorf("line %d: content before 'cluster:'/'nodes:' section", ln)
		}
		if section == "nodes:" {
			if strings.HasPrefix(body, "- ") || body == "-" {
				nodes = append(nodes, nil)
				nodeIndent = indent
				if body = strings.TrimSpace(body[1:]); body == "" {
					continue
				}
			} else if len(nodes) == 0 || indent <= nodeIndent {
				return nil, fmt.Errorf("line %d: node fields must follow a '- ' item", ln)
			}
		}
		k, v, ok := strings.Cut(body, ":")
		if !ok {
			return nil, fmt.Errorf("line %d: expected key: value, got %q", ln, body)
		}
		s := setting{strings.TrimSpace(k), strings.Trim(strings.TrimSpace(v), `"'`), ln}
		if section == "cluster:" {
			cluster = append(cluster, s)
		} else {
			nodes[len(nodes)-1] = append(nodes[len(nodes)-1], s)
		}
	}

	spec := &ClusterSpec{}
	base := defaultDraft()
	shared := cluster[:0]
	for _, s := range cluster {
		switch s.key {
		case "name":
			spec.Name = s.val
		case "demo_ring":
			spec.DemoRing = s.val
		case "state_dir":
			spec.StateDir = s.val
		default:
			shared = append(shared, s)
		}
	}
	if err := base.apply(shared); err != nil {
		return nil, err
	}
	for _, lines := range nodes {
		cn := ClusterNode{}
		d := base
		own := lines[:0]
		for _, s := range lines {
			switch s.key {
			case "id":
				d.ID = ids.NodeID(s.val)
			case "listen":
				d.Listen = s.val
			case "admin":
				cn.Admin = s.val
			default:
				own = append(own, s)
			}
		}
		if d.StateFile == "" && spec.StateDir != "" {
			d.StateFile = filepath.Join(spec.StateDir, string(d.ID)+".state")
		}
		err := d.apply(own)
		if err == nil {
			cn.NodeSpec, err = d.finish()
		}
		if err != nil {
			return nil, err
		}
		spec.Nodes = append(spec.Nodes, cn)
	}
	return spec, nil
}

// Resolve checks the spec as a whole — at least one node, unique non-empty
// ids, a known demo ring — and returns one runnable NodeSpec per entry, each
// with an empty peer map of its own.
func (c *ClusterSpec) Resolve() ([]NodeSpec, error) {
	if len(c.Nodes) == 0 {
		return nil, fmt.Errorf("cluster spec has no nodes")
	}
	switch c.DemoRing {
	case "", "none", "rooted", "garbage":
	default:
		return nil, fmt.Errorf("demo_ring %q: want none, rooted or garbage", c.DemoRing)
	}
	seen := make(map[ids.NodeID]bool, len(c.Nodes))
	specs := make([]NodeSpec, 0, len(c.Nodes))
	for _, cn := range c.Nodes {
		if cn.ID == "" {
			return nil, fmt.Errorf("cluster node without id")
		}
		if seen[cn.ID] {
			return nil, fmt.Errorf("duplicate node id %q", cn.ID)
		}
		seen[cn.ID] = true
		ns := cn.NodeSpec
		ns.Peers = map[ids.NodeID]string{}
		specs = append(specs, ns)
	}
	return specs, nil
}
