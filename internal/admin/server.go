package admin

import (
	"crypto/subtle"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dgc/internal/ids"
	"dgc/internal/lgc"
	"dgc/internal/membership"
	"dgc/internal/node"
	"dgc/internal/obs"
	"dgc/internal/trace"
)

// SchemaVersion is the version of every JSON payload the admin API serves
// (including /debug/dgc). It increments whenever a field changes meaning or
// disappears; additions are backward compatible and do not bump it.
const SchemaVersion = 1

// Handle is the per-node surface the admin server operates on. Both drivers
// satisfy it (*node.Node, *node.LiveRuntime), as does *Supervisor — which
// additionally implements the optional capability interfaces below.
type Handle interface {
	ID() ids.NodeID
	Stats() node.Stats
	DebugSnapshot() node.DebugSnapshot
	TableDump() node.TableDump
	RunDetection() int
	Summarize() error
	ForceDetect(candidate ids.RefID) (node.ForceDetectResult, error)
	Save() ([]byte, error)
}

// Statuser optionally reports process-level state ("running"/"down") and the
// node's transport address. Supervisors implement it; bare drivers don't.
type Statuser interface {
	State() string
	Addr() string
}

// FaultController optionally exposes fault injection. Implemented by
// *Supervisor (via its FaultEndpoint).
type FaultController interface {
	Faults() *FaultEndpoint
}

// Killer optionally supports crash/restart chaos.
type Killer interface {
	Kill(recoverAfter time.Duration) error
	Restart() error
}

// Restorer optionally supports replacing the node's collector state.
type Restorer interface {
	RestoreState(data []byte) error
}

// LGCRunner optionally supports forcing a local collection. (Split from
// Handle so the interface stays satisfiable by test fakes that don't model
// local GC.)
type LGCRunner interface {
	RunLGC() lgc.Result
}

// MemberLister optionally exposes the node's view of the elastic membership
// directory (nil when Config.Membership is off).
type MemberLister interface {
	Members() []membership.Member
}

// Joiner optionally supports seeding a new cluster member into the node's
// directory and transport dial table.
type Joiner interface {
	Join(peer ids.NodeID, addr string) error
}

// Drainer optionally supports voluntary departure: the node migrates its
// exported references before declaring itself dead.
type Drainer interface {
	Drain() error
}

// Server is the unified admin control plane: one HTTP surface per process
// exposing every hosted node's status, tables, in-flight detections, forced
// actions, snapshots and fault injection as a versioned JSON API. It replaces
// the per-binary /metrics + /debug/dgc wiring that cmd/dgc-node, cmd/dgc-sim
// and examples/tcpcluster each duplicated.
type Server struct {
	set   *obs.Set
	build BuildInfo
	pprof bool
	token string

	mu    sync.Mutex
	nodes map[string]Handle
	order []string
}

// SetToken enables bearer-token authentication: every /api/v1/* and /debug/*
// request must carry "Authorization: Bearer <token>" or is answered 401.
// /metrics stays open — Prometheus scrape configs rarely send auth headers
// and the exposition carries no mutating capability. An empty token leaves
// the API open. Call before Handler.
func (s *Server) SetToken(token string) { s.token = token }

// EnablePprof makes Handler also serve the net/http/pprof profiles at
// /debug/pprof/. Call before Handler; see PprofEnabled for the flag policy.
func (s *Server) EnablePprof() { s.pprof = true }

// NewServer creates a server over the given metrics set (a fresh set when
// nil) and publishes the dgc_build_info gauge into it.
func NewServer(set *obs.Set) *Server {
	if set == nil {
		set = obs.NewSet()
	}
	return &Server{
		set:   set,
		build: RegisterBuildInfo(set),
		nodes: make(map[string]Handle),
	}
}

// AddNode registers a node with the server. Safe before or after Handler is
// serving.
func (s *Server) AddNode(h Handle) {
	id := string(h.ID())
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.nodes[id]; !dup {
		s.order = append(s.order, id)
	}
	s.nodes[id] = h
}

// Metrics returns the server's metrics set.
func (s *Server) Metrics() *obs.Set { return s.set }

func (s *Server) handles() []Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Handle, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.nodes[id])
	}
	return out
}

// pick resolves the ?node= selector: required only when the server hosts
// more than one node.
func (s *Server) pick(r *http.Request) (Handle, error) {
	want := r.URL.Query().Get("node")
	s.mu.Lock()
	defer s.mu.Unlock()
	if want == "" {
		if len(s.order) == 1 {
			return s.nodes[s.order[0]], nil
		}
		return nil, fmt.Errorf("?node= is required (hosting %d nodes)", len(s.order))
	}
	h, ok := s.nodes[want]
	if !ok {
		return nil, fmt.Errorf("unknown node %q", want)
	}
	return h, nil
}

// NodeStatus is one node's row in the /api/v1/status payload.
type NodeStatus struct {
	Node    string `json:"node"`
	State   string `json:"state"` // "running" or "down" ("running" for bare drivers)
	Addr    string `json:"addr,omitempty"`
	Clock   uint64 `json:"clock"`
	Objects int    `json:"objects"`
	Scions  int    `json:"scions"`
	Stubs   int    `json:"stubs"`

	ObjectsSwept uint64 `json:"objects_swept"`
	LGCRuns      uint64 `json:"lgc_runs"`

	Detections DetectionStats     `json:"detections"`
	Mailbox    *node.MailboxStats `json:"mailbox,omitempty"`
	Faults     *FaultStatus       `json:"faults,omitempty"`
}

// DetectionStats summarizes one node's detector counters for the status API.
type DetectionStats struct {
	Started     uint64 `json:"started"`
	CyclesFound uint64 `json:"cycles_found"`
	Aborted     uint64 `json:"aborted"`
	CDMsSent    uint64 `json:"cdms_sent"`
	ScionsFreed uint64 `json:"scions_freed"`
	Inflight    int    `json:"inflight"`
}

// StatusReply is the /api/v1/status payload.
type StatusReply struct {
	SchemaVersion int                   `json:"schema_version"`
	Build         BuildInfo             `json:"build"`
	Nodes         map[string]NodeStatus `json:"nodes"`
}

func statusOf(h Handle) NodeStatus {
	st := NodeStatus{Node: string(h.ID()), State: "running"}
	if ss, ok := h.(Statuser); ok {
		st.State = ss.State()
		st.Addr = ss.Addr()
	}
	snap := h.DebugSnapshot()
	stats := h.Stats()
	st.Clock = snap.Clock
	st.Objects = snap.Objects
	st.Scions = snap.Scions
	st.Stubs = snap.Stubs
	st.ObjectsSwept = stats.ObjectsSwept
	st.LGCRuns = stats.LGCRuns
	st.Detections = DetectionStats{
		Started:     stats.Detector.Started,
		CyclesFound: stats.Detector.CyclesFound,
		Aborted:     stats.Detector.Aborted,
		CDMsSent:    stats.Detector.CDMsSent,
		ScionsFreed: stats.Detector.ScionsFreed,
		Inflight:    len(snap.InflightDetections),
	}
	st.Mailbox = snap.Mailbox
	if fc, ok := h.(FaultController); ok {
		fs := fc.Faults().FaultStatus()
		if fs.Active() || fs.Dropped > 0 || fs.Delayed > 0 {
			st.Faults = &fs
		}
	}
	return st
}

// DebugReply is the versioned /debug/dgc payload: the same per-node
// DebugSnapshot the endpoint always served, now inside a schema_version
// envelope keyed by node id.
type DebugReply struct {
	SchemaVersion int                           `json:"schema_version"`
	Nodes         map[string]node.DebugSnapshot `json:"nodes"`
}

// DetectionsReply is the /api/v1/detections payload.
type DetectionsReply struct {
	SchemaVersion int                                 `json:"schema_version"`
	Nodes         map[string][]node.InflightDetection `json:"nodes"`
}

// DetectReply is the /api/v1/detect payload. With a scion, Result carries the
// forced detection; without, Started counts the detections launched by a full
// candidate round.
type DetectReply struct {
	SchemaVersion int                     `json:"schema_version"`
	Node          string                  `json:"node"`
	Started       int                     `json:"started"`
	Result        *node.ForceDetectResult `json:"result,omitempty"`
}

// SnapshotReply is the /api/v1/snapshot payload.
type SnapshotReply struct {
	SchemaVersion int    `json:"schema_version"`
	Node          string `json:"node"`
	Bytes         int    `json:"bytes"`
	State         string `json:"state"` // base64 of the durable collector state
}

// InjectRequest is the /api/v1/inject body.
type InjectRequest struct {
	// Action is one of kill, restart, delay, drop, partition, heal.
	Action string `json:"action"`
	// Rate is the drop probability for action=drop.
	Rate float64 `json:"rate,omitempty"`
	// Delay is the injected latency for action=delay (Go duration string).
	Delay string `json:"delay,omitempty"`
	// Peers names the partitioned peers for action=partition (empty = all).
	Peers []string `json:"peers,omitempty"`
	// For bounds delay/drop/partition faults (Go duration string; empty =
	// until healed).
	For string `json:"for,omitempty"`
	// Recover schedules self-restart after action=kill (empty = stay down).
	Recover string `json:"recover,omitempty"`
}

// MemberInfo is one directory record in the /api/v1/members payload.
type MemberInfo struct {
	Node        string `json:"node"`
	Addr        string `json:"addr,omitempty"`
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
}

// MembersReply is the /api/v1/members payload: each hosted node's view of the
// membership directory. Views can disagree transiently — that divergence is
// exactly what the endpoint exists to observe.
type MembersReply struct {
	SchemaVersion int                     `json:"schema_version"`
	Nodes         map[string][]MemberInfo `json:"nodes"`
}

// JoinRequest is the /api/v1/join body: the new member's name and transport
// dial address, seeded into every hosted node's directory.
type JoinRequest struct {
	Node string `json:"node"`
	Addr string `json:"addr"`
}

func memberInfos(ms []membership.Member) []MemberInfo {
	out := make([]MemberInfo, 0, len(ms))
	for _, m := range ms {
		out = append(out, MemberInfo{
			Node:        string(m.Node),
			Addr:        m.Addr,
			State:       m.State.String(),
			Incarnation: m.Incarnation,
		})
	}
	return out
}

// Handler returns the admin API:
//
//	GET  /metrics             Prometheus text exposition
//	GET  /debug/dgc           versioned per-node debug snapshots
//	GET  /api/v1/status       cluster status: build, per-node state/counters
//	GET  /api/v1/tables       one node's scion/stub tables (?node=)
//	GET  /api/v1/detections   in-flight detections with trace ids
//	GET  /api/v1/members      per-node membership directory views
//	GET  /api/v1/events       journal event stream, NDJSON (?since=&kind=&trace=&follow=)
//	POST /api/v1/join         seed a new member {node, addr} into every hosted node
//	POST /api/v1/drain        start one node's voluntary departure (?node=)
//	POST /api/v1/detect       force detection round, or one scion (&scion=)
//	POST /api/v1/lgc          force a local collection
//	POST /api/v1/summarize    force a summary rebuild
//	POST /api/v1/snapshot     serialize durable state (base64)
//	POST /api/v1/restore      replace durable state (base64 body)
//	POST /api/v1/inject       fault injection (kill/restart/delay/drop/partition/heal)
//
// Every JSON payload carries schema_version. Errors are {"error": "..."}.
// With SetToken, /api/v1/* and /debug/* require a bearer token; /metrics
// stays open.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	if s.pprof {
		AttachPprof(mux)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.syncJournalMetrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.set.WriteText(w)
	})
	mux.HandleFunc("/debug/dgc", func(w http.ResponseWriter, r *http.Request) {
		reply := DebugReply{SchemaVersion: SchemaVersion, Nodes: make(map[string]node.DebugSnapshot)}
		for _, h := range s.handles() {
			reply.Nodes[string(h.ID())] = h.DebugSnapshot()
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("/api/v1/status", func(w http.ResponseWriter, r *http.Request) {
		reply := StatusReply{SchemaVersion: SchemaVersion, Build: s.build, Nodes: make(map[string]NodeStatus)}
		for _, h := range s.handles() {
			reply.Nodes[string(h.ID())] = statusOf(h)
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("/api/v1/tables", func(w http.ResponseWriter, r *http.Request) {
		h, err := s.pick(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			SchemaVersion int `json:"schema_version"`
			node.TableDump
		}{SchemaVersion, h.TableDump()})
	})
	mux.HandleFunc("/api/v1/detections", func(w http.ResponseWriter, r *http.Request) {
		reply := DetectionsReply{SchemaVersion: SchemaVersion, Nodes: make(map[string][]node.InflightDetection)}
		for _, h := range s.handles() {
			reply.Nodes[string(h.ID())] = h.DebugSnapshot().InflightDetections
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("/api/v1/detect", s.post(func(w http.ResponseWriter, r *http.Request) {
		h, err := s.pick(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		reply := DetectReply{SchemaVersion: SchemaVersion, Node: string(h.ID())}
		if scion := r.URL.Query().Get("scion"); scion != "" {
			ref, err := ParseRefID(scion)
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			res, err := h.ForceDetect(ref)
			if err != nil {
				writeErr(w, http.StatusUnprocessableEntity, err)
				return
			}
			reply.Result = &res
			if res.Outcome == "forwarded" {
				reply.Started = 1
			}
		} else {
			reply.Started = h.RunDetection()
		}
		writeJSON(w, http.StatusOK, reply)
	}))
	mux.HandleFunc("/api/v1/lgc", s.post(func(w http.ResponseWriter, r *http.Request) {
		h, err := s.pick(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		runner, ok := h.(LGCRunner)
		if !ok {
			writeErr(w, http.StatusNotImplemented, errors.New("node does not support forced LGC"))
			return
		}
		res := runner.RunLGC()
		writeJSON(w, http.StatusOK, struct {
			SchemaVersion int    `json:"schema_version"`
			Node          string `json:"node"`
			Swept         int    `json:"swept"`
			Live          int    `json:"live"`
			StubsCreated  int    `json:"stubs_created"`
			StubsDeleted  int    `json:"stubs_deleted"`
		}{SchemaVersion, string(h.ID()), res.Swept, res.Live, res.StubsCreated, res.StubsDeleted})
	}))
	mux.HandleFunc("/api/v1/summarize", s.post(func(w http.ResponseWriter, r *http.Request) {
		h, err := s.pick(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := h.Summarize(); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			SchemaVersion int    `json:"schema_version"`
			Node          string `json:"node"`
			OK            bool   `json:"ok"`
		}{SchemaVersion, string(h.ID()), true})
	}))
	mux.HandleFunc("/api/v1/snapshot", s.post(func(w http.ResponseWriter, r *http.Request) {
		h, err := s.pick(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		data, err := h.Save()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, SnapshotReply{
			SchemaVersion: SchemaVersion,
			Node:          string(h.ID()),
			Bytes:         len(data),
			State:         base64.StdEncoding.EncodeToString(data),
		})
	}))
	mux.HandleFunc("/api/v1/restore", s.post(func(w http.ResponseWriter, r *http.Request) {
		h, err := s.pick(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		rs, ok := h.(Restorer)
		if !ok {
			writeErr(w, http.StatusNotImplemented, errors.New("node does not support state restore"))
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		data, err := base64.StdEncoding.DecodeString(strings.TrimSpace(string(body)))
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("body must be base64 state: %w", err))
			return
		}
		if err := rs.RestoreState(data); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			SchemaVersion int    `json:"schema_version"`
			Node          string `json:"node"`
			OK            bool   `json:"ok"`
			Bytes         int    `json:"bytes"`
		}{SchemaVersion, string(h.ID()), true, len(data)})
	}))
	mux.HandleFunc("/api/v1/events", s.handleEvents)
	mux.HandleFunc("/api/v1/inject", s.post(s.handleInject))
	mux.HandleFunc("/api/v1/members", s.handleMembers)
	mux.HandleFunc("/api/v1/join", s.post(s.handleJoin))
	mux.HandleFunc("/api/v1/drain", s.post(s.handleDrain))
	if s.token == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.authorized(r) {
			w.Header().Set("WWW-Authenticate", `Bearer realm="dgc-admin"`)
			writeErr(w, http.StatusUnauthorized, errors.New("missing or invalid bearer token"))
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// authorized checks the request's bearer token against the configured one.
// Only /api/v1/* and /debug/* are gated; everything else (i.e. /metrics)
// passes.
func (s *Server) authorized(r *http.Request) bool {
	p := r.URL.Path
	if !strings.HasPrefix(p, "/api/v1/") && !strings.HasPrefix(p, "/debug/") {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(s.token)) == 1
}

func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	reply := MembersReply{SchemaVersion: SchemaVersion, Nodes: make(map[string][]MemberInfo)}
	for _, h := range s.handles() {
		ml, ok := h.(MemberLister)
		if !ok {
			continue
		}
		if ms := ml.Members(); ms != nil {
			reply.Nodes[string(h.ID())] = memberInfos(ms)
		}
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad join body: %w", err))
		return
	}
	if req.Node == "" || req.Addr == "" {
		writeErr(w, http.StatusBadRequest, errors.New("join needs node and addr"))
		return
	}
	// Seed the newcomer into every hosted node; gossip spreads it from there.
	seeded := make([]string, 0, 4)
	var firstErr error
	for _, h := range s.handles() {
		j, ok := h.(Joiner)
		if !ok {
			continue
		}
		if err := j.Join(ids.NodeID(req.Node), req.Addr); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", h.ID(), err)
			}
			continue
		}
		seeded = append(seeded, string(h.ID()))
	}
	if len(seeded) == 0 {
		if firstErr != nil {
			writeErr(w, http.StatusConflict, firstErr)
		} else {
			writeErr(w, http.StatusNotImplemented, errors.New("no hosted node supports membership join"))
		}
		return
	}
	writeJSON(w, http.StatusOK, struct {
		SchemaVersion int      `json:"schema_version"`
		Node          string   `json:"node"`
		Addr          string   `json:"addr"`
		SeededInto    []string `json:"seeded_into"`
	}{SchemaVersion, req.Node, req.Addr, seeded})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	h, err := s.pick(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	d, ok := h.(Drainer)
	if !ok {
		writeErr(w, http.StatusNotImplemented, errors.New("node does not support drain"))
		return
	}
	if err := d.Drain(); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		SchemaVersion int    `json:"schema_version"`
		Node          string `json:"node"`
		Draining      bool   `json:"draining"`
	}{SchemaVersion, string(h.ID()), true})
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	h, err := s.pick(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req InjectRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad inject body: %w", err))
		return
	}
	ttl, err := optionalDuration(req.For)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	faults := func() (*FaultEndpoint, bool) {
		fc, ok := h.(FaultController)
		if !ok {
			writeErr(w, http.StatusNotImplemented, errors.New("node does not support fault injection"))
			return nil, false
		}
		return fc.Faults(), true
	}
	switch req.Action {
	case "kill":
		k, ok := h.(Killer)
		if !ok {
			writeErr(w, http.StatusNotImplemented, errors.New("node does not support kill"))
			return
		}
		recoverAfter, err := optionalDuration(req.Recover)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := k.Kill(recoverAfter); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
	case "restart":
		k, ok := h.(Killer)
		if !ok {
			writeErr(w, http.StatusNotImplemented, errors.New("node does not support restart"))
			return
		}
		if err := k.Restart(); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
	case "delay":
		f, ok := faults()
		if !ok {
			return
		}
		d, err := optionalDuration(req.Delay)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		f.SetDelay(d, ttl)
	case "drop":
		f, ok := faults()
		if !ok {
			return
		}
		if req.Rate < 0 || req.Rate > 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("rate %v outside [0,1]", req.Rate))
			return
		}
		f.SetDrop(req.Rate, ttl)
	case "partition":
		f, ok := faults()
		if !ok {
			return
		}
		peers := make([]ids.NodeID, 0, len(req.Peers))
		for _, p := range req.Peers {
			peers = append(peers, ids.NodeID(p))
		}
		f.SetPartition(peers, len(peers) == 0, ttl)
	case "heal":
		f, ok := faults()
		if !ok {
			return
		}
		f.Heal()
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown action %q", req.Action))
		return
	}
	// Journal the fault action so event timelines show operator-induced
	// chaos next to the protocol's reaction. Kill/restart are journaled by
	// the supervisor itself (covering timed auto-recovery, which never
	// passes through this handler).
	if req.Action != "kill" && req.Action != "restart" {
		if j, ok := h.(Journaler); ok && j.Journal() != nil {
			detail := "action=" + req.Action
			if req.Rate > 0 {
				detail += fmt.Sprintf(" rate=%.2f", req.Rate)
			}
			if req.Delay != "" {
				detail += " delay=" + req.Delay
			}
			if len(req.Peers) > 0 {
				detail += " peers=" + strings.Join(req.Peers, "+")
			}
			if req.For != "" {
				detail += " for=" + req.For
			}
			j.Journal().Emit(h.ID(), trace.KindFault, "%s", detail)
		}
	}
	reply := struct {
		SchemaVersion int          `json:"schema_version"`
		Node          string       `json:"node"`
		Action        string       `json:"action"`
		State         string       `json:"state"`
		Faults        *FaultStatus `json:"faults,omitempty"`
	}{SchemaVersion: SchemaVersion, Node: string(h.ID()), Action: req.Action, State: "running"}
	if ss, ok := h.(Statuser); ok {
		reply.State = ss.State()
	}
	if fc, ok := h.(FaultController); ok {
		fs := fc.Faults().FaultStatus()
		reply.Faults = &fs
	}
	writeJSON(w, http.StatusOK, reply)
}

// post gates a handler to the POST method.
func (s *Server) post(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
			return
		}
		fn(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}

func optionalDuration(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q: %w", s, err)
	}
	return d, nil
}

// ParseRefID parses the canonical "SRC->OBJ@NODE" rendering (the Ref field
// of table dumps) back into an ids.RefID.
func ParseRefID(s string) (ids.RefID, error) {
	src, rest, ok := strings.Cut(s, "->")
	if !ok {
		return ids.RefID{}, fmt.Errorf("bad ref %q: want SRC->OBJ@NODE", s)
	}
	objStr, nodeStr, ok := strings.Cut(rest, "@")
	if !ok || src == "" || nodeStr == "" {
		return ids.RefID{}, fmt.Errorf("bad ref %q: want SRC->OBJ@NODE", s)
	}
	obj, err := strconv.ParseUint(objStr, 10, 64)
	if err != nil {
		return ids.RefID{}, fmt.Errorf("bad ref %q: object id: %w", s, err)
	}
	return ids.RefID{
		Src: ids.NodeID(src),
		Dst: ids.GlobalRef{Node: ids.NodeID(nodeStr), Obj: ids.ObjID(obj)},
	}, nil
}
