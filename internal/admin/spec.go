package admin

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/node"
	"dgc/internal/snapshot"
)

// ClusterSpec is the declarative input to `dgcctl up`: cluster-wide collector
// settings plus one entry per node, each able to override any cluster
// setting. It is decoded from a YAML subset (or JSON) by ParseClusterSpec and
// turned into runnable NodeSpecs by Resolve.
type ClusterSpec struct {
	Name string
	// DemoRing seeds the canonical 3+-node demo topology: "none" (default),
	// "rooted" (an inter-node ring anchored by a root) or "garbage" (the same
	// ring unrooted — distributed cyclic garbage only the DCDA can reclaim).
	DemoRing string
	// StateDir, when set, gives every node a state file <dir>/<id>.state.
	StateDir string
	Defaults NodeSettings
	Nodes    []ClusterNode
}

// ClusterNode is one node entry in a ClusterSpec.
type ClusterNode struct {
	ID     string
	Listen string // transport listen address (default 127.0.0.1:0)
	Admin  string // admin API listen address (default 127.0.0.1:0)
	NodeSettings
}

// NodeSettings are the per-node tunables of a cluster spec. Pointer fields
// distinguish "unset" (inherit the cluster default, then the built-in
// default) from an explicit zero (e.g. detect_every: 0 disables the
// detection daemon so only forced detections run).
type NodeSettings struct {
	Tick            *time.Duration
	LGCEvery        *uint64
	SnapshotEvery   *uint64
	DetectEvery     *uint64
	CandidateAge    *uint64
	CallTimeout     *uint64
	BatchDetect     *bool
	AggregateDetect *bool
	// Membership gates the elastic cluster directory (default on for live
	// clusters); the tick-denominated tuning knobs below inherit the
	// membership package defaults when unset.
	Membership      *bool
	GossipEvery     *uint64
	SuspectAfter    *uint64
	DeadAfter       *uint64
	LeaseTicks      *uint64
	BroadcastDelete *bool
	Backpressure    *bool
	CreditWindow    *int
	Mailbox         *int
	SeedObjects     *int
	Codec           *string
	SnapshotDir     *string
	StateFile       *string
	FaultSeed       *int64
}

// merge returns s with any unset field filled from base.
func (s NodeSettings) merge(base NodeSettings) NodeSettings {
	if s.Tick == nil {
		s.Tick = base.Tick
	}
	if s.LGCEvery == nil {
		s.LGCEvery = base.LGCEvery
	}
	if s.SnapshotEvery == nil {
		s.SnapshotEvery = base.SnapshotEvery
	}
	if s.DetectEvery == nil {
		s.DetectEvery = base.DetectEvery
	}
	if s.CandidateAge == nil {
		s.CandidateAge = base.CandidateAge
	}
	if s.CallTimeout == nil {
		s.CallTimeout = base.CallTimeout
	}
	if s.BatchDetect == nil {
		s.BatchDetect = base.BatchDetect
	}
	if s.AggregateDetect == nil {
		s.AggregateDetect = base.AggregateDetect
	}
	if s.Membership == nil {
		s.Membership = base.Membership
	}
	if s.GossipEvery == nil {
		s.GossipEvery = base.GossipEvery
	}
	if s.SuspectAfter == nil {
		s.SuspectAfter = base.SuspectAfter
	}
	if s.DeadAfter == nil {
		s.DeadAfter = base.DeadAfter
	}
	if s.LeaseTicks == nil {
		s.LeaseTicks = base.LeaseTicks
	}
	if s.BroadcastDelete == nil {
		s.BroadcastDelete = base.BroadcastDelete
	}
	if s.Backpressure == nil {
		s.Backpressure = base.Backpressure
	}
	if s.CreditWindow == nil {
		s.CreditWindow = base.CreditWindow
	}
	if s.Mailbox == nil {
		s.Mailbox = base.Mailbox
	}
	if s.SeedObjects == nil {
		s.SeedObjects = base.SeedObjects
	}
	if s.Codec == nil {
		s.Codec = base.Codec
	}
	if s.SnapshotDir == nil {
		s.SnapshotDir = base.SnapshotDir
	}
	if s.StateFile == nil {
		s.StateFile = base.StateFile
	}
	if s.FaultSeed == nil {
		s.FaultSeed = base.FaultSeed
	}
	return s
}

// Resolve turns the spec into one NodeSpec per entry, applying cluster
// defaults and the built-in dgc-node defaults (tick 250ms, lgc_every 2,
// snapshot_every 4, detect_every 4, candidate_age 4, call_timeout 40).
// Batched detection defaults ON for declarative clusters — `batch_detect:
// false` is the escape hatch. Peer maps are left empty: live clusters wire
// them after the ephemeral ports are known (Supervisor.AddPeer).
func (c *ClusterSpec) Resolve() ([]NodeSpec, error) {
	if len(c.Nodes) == 0 {
		return nil, fmt.Errorf("cluster spec has no nodes")
	}
	switch c.DemoRing {
	case "", "none", "rooted", "garbage":
	default:
		return nil, fmt.Errorf("demo_ring %q: want none, rooted or garbage", c.DemoRing)
	}
	seen := make(map[string]bool, len(c.Nodes))
	specs := make([]NodeSpec, 0, len(c.Nodes))
	for _, cn := range c.Nodes {
		if cn.ID == "" {
			return nil, fmt.Errorf("cluster node without id")
		}
		if seen[cn.ID] {
			return nil, fmt.Errorf("duplicate node id %q", cn.ID)
		}
		seen[cn.ID] = true
		st := cn.NodeSettings.merge(c.Defaults)

		tick := 250 * time.Millisecond
		if st.Tick != nil {
			tick = *st.Tick
		}
		if tick <= 0 {
			return nil, fmt.Errorf("node %s: tick must be positive", cn.ID)
		}
		every := func(p *uint64, def uint64) uint64 {
			if p != nil {
				return *p
			}
			return def
		}
		spec := NodeSpec{
			ID:     ids.NodeID(cn.ID),
			Listen: cn.Listen,
			Peers:  map[ids.NodeID]string{},
		}
		spec.Config.CandidateMinAge = every(st.CandidateAge, 4)
		spec.Config.CallTimeoutTicks = every(st.CallTimeout, 40)
		spec.Config.BatchDetection = node.Bool(st.BatchDetect == nil || *st.BatchDetect)
		if st.AggregateDetect != nil && *st.AggregateDetect {
			spec.Config.AggregateDetection = true
			spec.Config.BatchDetection = node.Bool(true)
		}
		if st.Membership == nil || *st.Membership {
			spec.Config.Membership = &membership.Config{
				GossipEvery:  every(st.GossipEvery, 0),
				SuspectAfter: every(st.SuspectAfter, 0),
				DeadAfter:    every(st.DeadAfter, 0),
				LeaseTicks:   every(st.LeaseTicks, 0),
			}
		}
		if st.BroadcastDelete != nil {
			spec.Config.Detector.BroadcastDelete = *st.BroadcastDelete
		}
		if st.Codec != nil {
			switch *st.Codec {
			case "", "binary":
				spec.Config.Codec = snapshot.BinaryCodec{}
			case "reflect":
				spec.Config.Codec = snapshot.ReflectCodec{}
			default:
				return nil, fmt.Errorf("node %s: unknown codec %q", cn.ID, *st.Codec)
			}
		}
		if st.SnapshotDir != nil {
			spec.Config.SnapshotDir = *st.SnapshotDir
			if spec.Config.Codec == nil {
				spec.Config.Codec = snapshot.BinaryCodec{}
			}
		}
		spec.Runtime.Tick = tick
		spec.Runtime.LGCInterval = time.Duration(every(st.LGCEvery, 2)) * tick
		spec.Runtime.SnapshotInterval = time.Duration(every(st.SnapshotEvery, 4)) * tick
		spec.Runtime.DetectInterval = time.Duration(every(st.DetectEvery, 4)) * tick
		if st.Backpressure != nil {
			spec.Runtime.Backpressure = *st.Backpressure
		}
		if st.CreditWindow != nil {
			spec.Runtime.CreditWindow = *st.CreditWindow
		}
		if st.Mailbox != nil {
			spec.Runtime.Mailbox = *st.Mailbox
		}
		if st.SeedObjects != nil {
			spec.SeedObjects = *st.SeedObjects
		}
		if st.StateFile != nil {
			spec.StateFile = *st.StateFile
		} else if c.StateDir != "" {
			spec.StateFile = filepath.Join(c.StateDir, cn.ID+".state")
		}
		if st.FaultSeed != nil {
			spec.FaultSeed = *st.FaultSeed
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// ParseClusterSpec decodes a cluster spec from YAML-subset or JSON text
// (JSON when the first non-space byte is '{'). The YAML subset covers
// exactly what cluster files need — two top-level sections:
//
//	# comments and blank lines are ignored
//	cluster:
//	  tick: 50ms
//	  detect_every: 4
//	  batch_detect: true
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
// only; quotes around values are stripped.
func ParseClusterSpec(text []byte) (*ClusterSpec, error) {
	trimmed := strings.TrimSpace(string(text))
	if strings.HasPrefix(trimmed, "{") {
		return parseJSONSpec([]byte(trimmed))
	}
	cluster := map[string]string{}
	var nodes []map[string]string
	section := ""
	var nodeIndent int
	for ln, raw := range strings.Split(string(text), "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " \t"))
		body := strings.TrimSpace(line)
		if indent == 0 {
			switch {
			case body == "cluster:":
				section = "cluster"
			case body == "nodes:":
				section = "nodes"
			default:
				return nil, fmt.Errorf("line %d: expected 'cluster:' or 'nodes:', got %q", ln+1, body)
			}
			continue
		}
		switch section {
		case "cluster":
			k, v, err := splitKV(body, ln+1)
			if err != nil {
				return nil, err
			}
			cluster[k] = v
		case "nodes":
			if strings.HasPrefix(body, "- ") || body == "-" {
				nodes = append(nodes, map[string]string{})
				nodeIndent = indent
				body = strings.TrimSpace(strings.TrimPrefix(body, "-"))
				if body == "" {
					continue
				}
			} else if len(nodes) == 0 || indent <= nodeIndent {
				return nil, fmt.Errorf("line %d: node fields must follow a '- ' item", ln+1)
			}
			k, v, err := splitKV(body, ln+1)
			if err != nil {
				return nil, err
			}
			nodes[len(nodes)-1][k] = v
		default:
			return nil, fmt.Errorf("line %d: content before 'cluster:'/'nodes:' section", ln+1)
		}
	}
	return assembleSpec(cluster, nodes)
}

func splitKV(body string, line int) (string, string, error) {
	k, v, ok := strings.Cut(body, ":")
	if !ok {
		return "", "", fmt.Errorf("line %d: expected key: value, got %q", line, body)
	}
	v = strings.TrimSpace(v)
	v = strings.Trim(v, `"'`)
	return strings.TrimSpace(k), v, nil
}

// parseJSONSpec accepts the same shape as the YAML subset, as JSON:
// {"cluster": {...}, "nodes": [{...}, ...]}. Values may be JSON numbers,
// bools or strings; all are normalized to strings for the shared converter.
func parseJSONSpec(text []byte) (*ClusterSpec, error) {
	var doc struct {
		Cluster map[string]any   `json:"cluster"`
		Nodes   []map[string]any `json:"nodes"`
	}
	if err := json.Unmarshal(text, &doc); err != nil {
		return nil, fmt.Errorf("bad JSON cluster spec: %w", err)
	}
	norm := func(m map[string]any) map[string]string {
		out := make(map[string]string, len(m))
		for k, v := range m {
			switch t := v.(type) {
			case string:
				out[k] = t
			case bool:
				out[k] = strconv.FormatBool(t)
			case float64:
				out[k] = strconv.FormatFloat(t, 'f', -1, 64)
			default:
				out[k] = fmt.Sprint(v)
			}
		}
		return out
	}
	nodes := make([]map[string]string, 0, len(doc.Nodes))
	for _, n := range doc.Nodes {
		nodes = append(nodes, norm(n))
	}
	return assembleSpec(norm(doc.Cluster), nodes)
}

func assembleSpec(cluster map[string]string, nodes []map[string]string) (*ClusterSpec, error) {
	spec := &ClusterSpec{}
	if v, ok := cluster["name"]; ok {
		spec.Name = v
		delete(cluster, "name")
	}
	if v, ok := cluster["demo_ring"]; ok {
		spec.DemoRing = v
		delete(cluster, "demo_ring")
	}
	if v, ok := cluster["state_dir"]; ok {
		spec.StateDir = v
		delete(cluster, "state_dir")
	}
	var err error
	spec.Defaults, err = settingsFrom(cluster, "cluster")
	if err != nil {
		return nil, err
	}
	for _, nm := range nodes {
		cn := ClusterNode{}
		if v, ok := nm["id"]; ok {
			cn.ID = v
			delete(nm, "id")
		}
		if v, ok := nm["listen"]; ok {
			cn.Listen = v
			delete(nm, "listen")
		}
		if v, ok := nm["admin"]; ok {
			cn.Admin = v
			delete(nm, "admin")
		}
		cn.NodeSettings, err = settingsFrom(nm, "node "+cn.ID)
		if err != nil {
			return nil, err
		}
		spec.Nodes = append(spec.Nodes, cn)
	}
	return spec, nil
}

// settingsFrom converts a flat key/value map into NodeSettings. Unknown keys
// are errors.
func settingsFrom(m map[string]string, where string) (NodeSettings, error) {
	var s NodeSettings
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := m[k]
		var err error
		switch k {
		case "tick":
			var d time.Duration
			if d, err = time.ParseDuration(v); err == nil {
				s.Tick = &d
			}
		case "lgc_every":
			s.LGCEvery, err = parseU64(v)
		case "snapshot_every":
			s.SnapshotEvery, err = parseU64(v)
		case "detect_every":
			s.DetectEvery, err = parseU64(v)
		case "candidate_age":
			s.CandidateAge, err = parseU64(v)
		case "call_timeout":
			s.CallTimeout, err = parseU64(v)
		case "batch_detect":
			s.BatchDetect, err = parseBool(v)
		case "aggregate_detect":
			s.AggregateDetect, err = parseBool(v)
		case "membership":
			s.Membership, err = parseBool(v)
		case "gossip_every":
			s.GossipEvery, err = parseU64(v)
		case "suspect_after":
			s.SuspectAfter, err = parseU64(v)
		case "dead_after":
			s.DeadAfter, err = parseU64(v)
		case "lease_ticks":
			s.LeaseTicks, err = parseU64(v)
		case "broadcast_delete":
			s.BroadcastDelete, err = parseBool(v)
		case "backpressure":
			s.Backpressure, err = parseBool(v)
		case "credit_window":
			s.CreditWindow, err = parseInt(v)
		case "mailbox":
			s.Mailbox, err = parseInt(v)
		case "seed_objects":
			s.SeedObjects, err = parseInt(v)
		case "codec":
			s.Codec = &v
		case "snapshot_dir":
			s.SnapshotDir = &v
		case "state_file":
			s.StateFile = &v
		case "fault_seed":
			var n int64
			if n, err = strconv.ParseInt(v, 10, 64); err == nil {
				s.FaultSeed = &n
			}
		default:
			return s, fmt.Errorf("%s: unknown setting %q", where, k)
		}
		if err != nil {
			return s, fmt.Errorf("%s: %s: %v", where, k, err)
		}
	}
	return s, nil
}

func parseU64(v string) (*uint64, error) {
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return nil, err
	}
	return &n, nil
}

func parseInt(v string) (*int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return nil, err
	}
	return &n, nil
}

func parseBool(v string) (*bool, error) {
	b, err := strconv.ParseBool(v)
	if err != nil {
		return nil, err
	}
	return &b, nil
}
