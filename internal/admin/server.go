package admin

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/node"
	"dgc/internal/trace"
)

// SchemaVersion is the version of every JSON payload the admin API serves
// (including /debug/dgc). It increments whenever a field changes meaning or
// disappears; additions are backward compatible and do not bump it.
const SchemaVersion = 2

// Server is the admin control plane of one supervised node: one HTTP
// surface exposing the node's status, tables, membership view, event
// journal, forced detections and fault injection as a versioned JSON API. Payloads keep their node-id-keyed shape, with the one node as
// the one entry.
type Server struct {
	sup   *Supervisor
	build BuildInfo
	pprof bool
	token string
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

// NewServer creates the admin server of sup and publishes the dgc_build_info
// gauge into the supervisor's metric set.
func NewServer(sup *Supervisor) *Server {
	return &Server{sup: sup, build: RegisterBuildInfo(sup.Metrics())}
}

// checkNode rejects a ?node= selector that names a node other than the
// served one; an absent selector means the served node.
func (s *Server) checkNode(r *http.Request) error {
	if want := r.URL.Query().Get("node"); want != "" && want != string(s.sup.ID()) {
		return fmt.Errorf("unknown node %q (this server runs %s)", want, s.sup.ID())
	}
	return nil
}

// NodeStatus is one node's row in the /api/v1/status payload.
type NodeStatus struct {
	Node    string `json:"node"`
	State   string `json:"state"` // "running" or "down"
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
}

// StatusReply is the /api/v1/status payload.
type StatusReply struct {
	SchemaVersion int                   `json:"schema_version"`
	Build         BuildInfo             `json:"build"`
	Nodes         map[string]NodeStatus `json:"nodes"`
}

func (s *Server) status() NodeStatus {
	sup := s.sup
	st := NodeStatus{Node: string(sup.ID()), State: sup.State(), Addr: sup.Addr()}
	snap := sup.DebugSnapshot()
	met := sup.NodeMetrics()
	st.Clock = snap.Clock
	st.Objects = snap.Objects
	st.Scions = snap.Scions
	st.Stubs = snap.Stubs
	st.ObjectsSwept = met.ObjectsSwept.Value()
	st.LGCRuns = met.LGCRuns.Value()
	st.Detections = DetectionStats{
		Started:     met.DetectionsStarted.Value(),
		CyclesFound: met.CyclesFound.Value(),
		Aborted:     met.DetectionsAborted.Value(),
		CDMsSent:    met.CDMsSent.Value(),
		ScionsFreed: met.ScionsFreed.Value(),
	}
	st.Mailbox = snap.Mailbox
	if fs := sup.Faults().FaultStatus(); fs.Active() || fs.Dropped > 0 || fs.Delayed > 0 {
		st.Faults = &fs
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

// DetectReply is the /api/v1/detect payload. With a scion, Result carries the
// forced detection; without, Started counts the detections launched by a full
// candidate round.
type DetectReply struct {
	SchemaVersion int                     `json:"schema_version"`
	Node          string                  `json:"node"`
	Started       int                     `json:"started"`
	Result        *node.ForceDetectResult `json:"result,omitempty"`
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

// MembersReply is the /api/v1/members payload: the node's view of the
// membership directory, keyed by node id (no entry with membership off).
// Views of different nodes can disagree transiently — that divergence is
// exactly what the endpoint exists to observe.
type MembersReply struct {
	SchemaVersion int                     `json:"schema_version"`
	Nodes         map[string][]MemberInfo `json:"nodes"`
}

// JoinRequest is the /api/v1/join body: the new member's name and transport
// dial address, seeded into the node's directory.
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
//	GET  /debug/dgc           versioned debug snapshot
//	GET  /api/v1/status       build, node state and counters
//	GET  /api/v1/tables       scion/stub tables
//	GET  /api/v1/members      membership directory view
//	GET  /api/v1/events       journal event stream, NDJSON (?since=&kind=&trace=&follow=)
//	POST /api/v1/join         seed a new member {node, addr} into the directory
//	POST /api/v1/drain        start the node's voluntary departure
//	POST /api/v1/detect       force detection round, or one scion (?scion=)
//	POST /api/v1/inject       fault injection (kill/restart/delay/drop/partition/heal)
//
// Every JSON payload carries schema_version. Errors are {"error": "..."}. A
// ?node= naming another node is answered 400. With SetToken, /api/v1/* and
// /debug/* require a bearer token; /metrics stays open.
func (s *Server) Handler() http.Handler {
	sup := s.sup
	id := string(sup.ID())
	mux := http.NewServeMux()
	if s.pprof {
		AttachPprof(mux)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.syncJournalMetrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = sup.Metrics().WriteText(w)
	})
	mux.HandleFunc("/debug/dgc", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, DebugReply{SchemaVersion: SchemaVersion,
			Nodes: map[string]node.DebugSnapshot{id: sup.DebugSnapshot()}})
	})
	mux.HandleFunc("/api/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, StatusReply{SchemaVersion: SchemaVersion, Build: s.build,
			Nodes: map[string]NodeStatus{id: s.status()}})
	})
	mux.HandleFunc("/api/v1/tables", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			SchemaVersion int `json:"schema_version"`
			node.TableDump
		}{SchemaVersion, sup.TableDump()})
	})
	mux.HandleFunc("/api/v1/detect", s.post(func(w http.ResponseWriter, r *http.Request) {
		reply := DetectReply{SchemaVersion: SchemaVersion, Node: id}
		if scion := r.URL.Query().Get("scion"); scion != "" {
			ref, err := ids.ParseRefID(scion)
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			res, err := sup.ForceDetect(ref)
			if err != nil {
				writeErr(w, http.StatusUnprocessableEntity, err)
				return
			}
			reply.Result = &res
			if res.Outcome == "forwarded" {
				reply.Started = 1
			}
		} else {
			started, err := sup.RunDetection()
			if err != nil {
				writeErr(w, http.StatusUnprocessableEntity, err)
				return
			}
			reply.Started = started
		}
		writeJSON(w, http.StatusOK, reply)
	}))
	mux.HandleFunc("/api/v1/events", s.handleEvents)
	mux.HandleFunc("/api/v1/inject", s.post(s.handleInject))
	mux.HandleFunc("/api/v1/members", func(w http.ResponseWriter, r *http.Request) {
		reply := MembersReply{SchemaVersion: SchemaVersion, Nodes: make(map[string][]MemberInfo)}
		if ms := sup.Members(); ms != nil {
			reply.Nodes[id] = memberInfos(ms)
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("/api/v1/join", s.post(s.handleJoin))
	mux.HandleFunc("/api/v1/drain", s.post(func(w http.ResponseWriter, r *http.Request) {
		if err := sup.Drain(); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			SchemaVersion int    `json:"schema_version"`
			Node          string `json:"node"`
			Draining      bool   `json:"draining"`
		}{SchemaVersion, id, true})
	}))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.token != "" && !s.authorized(r) {
			w.Header().Set("WWW-Authenticate", `Bearer realm="dgc-admin"`)
			writeErr(w, http.StatusUnauthorized, errors.New("missing or invalid bearer token"))
			return
		}
		if err := s.checkNode(r); err != nil {
			writeErr(w, http.StatusBadRequest, err)
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
	// Seed the newcomer into this node's directory; gossip spreads it from
	// there.
	id := string(s.sup.ID())
	if err := s.sup.Join(ids.NodeID(req.Node), req.Addr); err != nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("%s: %w", id, err))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		SchemaVersion int      `json:"schema_version"`
		Node          string   `json:"node"`
		Addr          string   `json:"addr"`
		SeededInto    []string `json:"seeded_into"`
	}{SchemaVersion, req.Node, req.Addr, []string{id}})
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	sup := s.sup
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
	f := sup.Faults()
	switch req.Action {
	case "kill":
		recoverAfter, err := optionalDuration(req.Recover)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := sup.Kill(recoverAfter); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
	case "restart":
		if err := sup.Restart(); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
	case "delay":
		d, err := optionalDuration(req.Delay)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		f.SetDelay(d, ttl)
	case "drop":
		if req.Rate < 0 || req.Rate > 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("rate %v outside [0,1]", req.Rate))
			return
		}
		f.SetDrop(req.Rate, ttl)
	case "partition":
		peers := make([]ids.NodeID, 0, len(req.Peers))
		for _, p := range req.Peers {
			peers = append(peers, ids.NodeID(p))
		}
		f.SetPartition(peers, len(peers) == 0, ttl)
	case "heal":
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
		sup.Journal().Emit(sup.ID(), trace.KindFault, "%s", detail)
	}
	fs := f.FaultStatus()
	writeJSON(w, http.StatusOK, struct {
		SchemaVersion int          `json:"schema_version"`
		Node          string       `json:"node"`
		Action        string       `json:"action"`
		State         string       `json:"state"`
		Faults        *FaultStatus `json:"faults,omitempty"`
	}{SchemaVersion, string(sup.ID()), req.Action, sup.State(), &fs})
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
