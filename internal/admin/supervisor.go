package admin

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"dgc/internal/ids"
	"dgc/internal/lgc"
	"dgc/internal/membership"
	"dgc/internal/node"
	"dgc/internal/obs"
	"dgc/internal/trace"
	"dgc/internal/transport"
)

// ErrNodeDown is returned by supervisor operations that need a running
// runtime while the node is killed or stopped.
var ErrNodeDown = errors.New("admin: node is down")

// defaultJournalCapacity sizes the event journal StartNode creates when the
// spec doesn't bring its own.
const defaultJournalCapacity = 8192

// NodeSpec describes one live node: everything cmd/dgc-node used to wire by
// hand — transport listen address, peers, collector configuration, runtime
// intervals, persistent state — in one declarative value shared by dgc-node's
// flag parsing and dgcctl's cluster.yaml loader.
type NodeSpec struct {
	ID     ids.NodeID
	Listen string                // transport listen address ("host:port", port 0 ephemeral)
	Peers  map[ids.NodeID]string // peer name -> transport dial address

	Config  node.Config // Metrics is populated by the supervisor
	Runtime node.RuntimeConfig

	// StateFile, when set, is loaded at start (if present) and written by
	// Stop and Kill: the node's durable collector state.
	StateFile string

	// SeedObjects allocates N rooted demo objects on a fresh start (not on
	// restore).
	SeedObjects int

	// FaultSeed seeds the fault injector's drop coin (0 = time-free default).
	FaultSeed int64
}

// Supervisor owns one live node end to end: the TCP endpoint (wrapped in a
// fault injector), the LiveRuntime driving the machine, the metrics set, and
// the node's durable state. It is the process-lifecycle half of the admin
// control plane: Stop for graceful shutdown, Kill/Restart for chaos
// injection, RestoreState for operator-driven state replacement — with the
// fault configuration and the listen port stable across restarts so peers
// reconnect to the same address.
type Supervisor struct {
	spec   NodeSpec
	set    *obs.Set
	faults *FaultEndpoint

	mu        sync.Mutex
	ep        *transport.TCPEndpoint
	rt        *node.LiveRuntime
	addr      string // concrete listen address after first bind
	lastState []byte // most recent Save, for restart-after-kill
	stopped   bool   // Stop is terminal; Kill is not
}

// StartNode binds the spec's transport address, assembles the runtime
// (restoring from StateFile when present) and returns its supervisor. The
// supervisor's metrics set (spec.Config.Metrics, created when nil) carries
// the node, transport and build-info series.
func StartNode(spec NodeSpec) (*Supervisor, error) {
	if spec.ID == "" {
		return nil, errors.New("admin: NodeSpec.ID is required")
	}
	if spec.Listen == "" {
		spec.Listen = "127.0.0.1:0"
	}
	if spec.Config.Metrics == nil {
		spec.Config.Metrics = obs.NewSet()
	}
	if spec.Config.Trace == nil {
		// Live nodes journal by default: the event stream is the admin
		// plane's observability backbone, and an 8k ring is cheap. Pass an
		// explicit Log (or a filtered one) to override.
		spec.Config.Trace = trace.New(defaultJournalCapacity)
	}
	s := &Supervisor{
		spec:   spec,
		set:    spec.Config.Metrics,
		faults: NewFaultEndpoint(nil, spec.FaultSeed),
	}
	var state []byte
	if spec.StateFile != "" {
		data, err := os.ReadFile(spec.StateFile)
		switch {
		case err == nil:
			state = data
		case !os.IsNotExist(err):
			return nil, fmt.Errorf("admin: read state %s: %w", spec.StateFile, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.startLocked(state); err != nil {
		return nil, err
	}
	return s, nil
}

// startLocked binds the transport and starts the runtime. Caller holds mu.
func (s *Supervisor) startLocked(state []byte) error {
	listen := s.spec.Listen
	if s.addr != "" {
		// Restarts re-bind the concrete first-bind address so peers' dial
		// tables stay valid without a membership update.
		listen = s.addr
	}
	ep, err := transport.ListenTCP(s.spec.ID, listen, s.spec.Peers)
	if err != nil {
		return err
	}
	ep.SetMetrics(obs.NewTransportMetrics(s.set.Node(string(s.spec.ID))))
	s.faults.setInner(ep)

	var rt *node.LiveRuntime
	if state != nil {
		rt, err = node.RestoreLiveRuntime(s.faults, s.spec.Config, s.spec.Runtime, state)
		if err != nil {
			ep.Close()
			return fmt.Errorf("admin: restore %s: %w", s.spec.ID, err)
		}
	} else {
		rt = node.NewLiveRuntime(s.spec.ID, s.faults, s.spec.Config, s.spec.Runtime)
		if s.spec.SeedObjects > 0 {
			err := rt.With(func(m node.Mutator) {
				for i := 0; i < s.spec.SeedObjects; i++ {
					obj := m.Alloc(nil)
					if rerr := m.Root(obj); rerr != nil {
						panic(rerr) // fresh heap: Root on a just-allocated object cannot fail
					}
				}
			})
			if err != nil {
				rt.Close()
				ep.Close()
				return err
			}
		}
	}
	// With the elastic directory on, the node advertises its concrete bound
	// address and seeds the static peer list as joining members — they flip
	// to alive on first traffic, so a half-started cluster is visibly
	// "joining" until gossip has actually flowed. Membership state is
	// volatile by design: a restart re-seeds and re-learns.
	if s.spec.Config.Membership != nil {
		rt.SetAdvertiseAddr(ep.Addr())
		peers := make([]ids.NodeID, 0, len(s.spec.Peers))
		for p := range s.spec.Peers {
			peers = append(peers, p)
		}
		ids.SortNodeIDs(peers)
		for _, p := range peers {
			_ = rt.AddMember(p, s.spec.Peers[p])
		}
	}
	s.ep, s.rt = ep, rt
	s.addr = ep.Addr()
	s.lastState = state
	return nil
}

// ID returns the supervised node's identifier.
func (s *Supervisor) ID() ids.NodeID { return s.spec.ID }

// Addr returns the node's concrete transport address.
func (s *Supervisor) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// State reports "running" or "down".
func (s *Supervisor) State() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rt != nil {
		return "running"
	}
	return "down"
}

// AddPeer registers or updates a peer's transport dial address (on the
// current endpoint and in the spec, so restarts keep it). With membership on
// the peer is also seeded into the directory as joining.
func (s *Supervisor) AddPeer(peer ids.NodeID, addr string) {
	s.mu.Lock()
	if s.spec.Peers == nil {
		s.spec.Peers = make(map[ids.NodeID]string)
	}
	s.spec.Peers[peer] = addr
	if s.ep != nil {
		s.ep.AddPeer(peer, addr)
	}
	rt := s.rt
	s.mu.Unlock()
	if rt != nil && s.spec.Config.Membership != nil {
		_ = rt.AddMember(peer, addr)
	}
}

// Runtime returns the current LiveRuntime, or nil while the node is down.
// Callers race with Kill by design: a runtime obtained here may be closed
// underneath them, in which case its methods return zero values or
// ErrRuntimeClosed.
func (s *Supervisor) Runtime() *node.LiveRuntime {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt
}

// Metrics returns the supervisor's metrics set.
func (s *Supervisor) Metrics() *obs.Set { return s.set }

// Faults returns the node's fault injector (stable across restarts).
func (s *Supervisor) Faults() *FaultEndpoint { return s.faults }

// Journal returns the node's event journal. It lives in the spec, not the
// runtime, so the stream (and its sequence numbers) survives Kill/Restart —
// the observability-across-faults property the admin event API depends on.
func (s *Supervisor) Journal() *trace.Log { return s.spec.Config.Trace }

// teardownLocked saves, closes and detaches the current runtime and
// endpoint. Caller holds mu.
func (s *Supervisor) teardownLocked() {
	rt, ep := s.rt, s.ep
	s.rt, s.ep = nil, nil
	s.mu.Unlock()
	defer s.mu.Lock()
	if rt != nil {
		if state, err := rt.Save(); err == nil {
			s.mu.Lock()
			s.lastState = state
			s.mu.Unlock()
		}
		rt.Close()
	}
	if ep != nil {
		ep.Close()
	}
}

// Kill simulates a node crash-with-snapshot: the durable state is captured,
// the runtime stops and the socket closes — peers see connection failures
// and message loss, exactly as if the process died. When recoverAfter is
// positive the node restarts itself from the captured state after that
// delay; otherwise it stays down until Restart.
func (s *Supervisor) Kill(recoverAfter time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return ErrNodeDown
	}
	if s.rt == nil {
		return ErrNodeDown
	}
	s.teardownLocked()
	if j := s.spec.Config.Trace; j != nil {
		j.Emit(s.spec.ID, trace.KindFault, "action=kill recover=%s", recoverAfter)
	}
	if recoverAfter > 0 {
		time.AfterFunc(recoverAfter, func() { _ = s.Restart() })
	}
	return nil
}

// Restart brings a killed node back on its original address, restoring the
// state captured at kill time. No-op when already running.
func (s *Supervisor) Restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return errors.New("admin: supervisor stopped")
	}
	if s.rt != nil {
		return nil
	}
	if err := s.startLocked(s.lastState); err != nil {
		return err
	}
	if j := s.spec.Config.Trace; j != nil {
		j.Emit(s.spec.ID, trace.KindFault, "action=restart")
	}
	return nil
}

// RestoreState replaces the node's collector state in place: the current
// runtime closes, a new one starts from data on the same endpoint. The
// transport stays up throughout. Undecodable data is refused with the
// current runtime still serving.
func (s *Supervisor) RestoreState(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return ErrNodeDown
	}
	// Decode before closing anything: once the runtime is closed there is no
	// way back to it, and a node with no runtime on a bound endpoint can be
	// neither killed nor restarted.
	if _, err := node.RestoreMachine(s.spec.Config, data); err != nil {
		return fmt.Errorf("admin: restore %s: %w", s.spec.ID, err)
	}
	if s.rt != nil {
		rt := s.rt
		s.rt = nil
		s.mu.Unlock()
		rt.Close()
		s.mu.Lock()
	}
	if s.ep == nil {
		// Node was killed: bring the transport back first.
		if err := s.startLocked(data); err != nil {
			return err
		}
		return nil
	}
	rt, err := node.RestoreLiveRuntime(s.faults, s.spec.Config, s.spec.Runtime, data)
	if err != nil {
		return fmt.Errorf("admin: restore %s: %w", s.spec.ID, err)
	}
	s.rt = rt
	s.lastState = data
	return nil
}

// Stop is the graceful shutdown: the durable state is flushed to StateFile
// (when configured), the runtime stops, and the transport closes cleanly.
// Terminal — a stopped supervisor cannot restart. Idempotent.
func (s *Supervisor) Stop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil
	}
	s.stopped = true
	s.teardownLocked()
	if s.spec.StateFile != "" && s.lastState != nil {
		if err := os.WriteFile(s.spec.StateFile, s.lastState, 0o644); err != nil {
			return fmt.Errorf("admin: write state %s: %w", s.spec.StateFile, err)
		}
	}
	return nil
}

// StateBytes returns the most recently captured durable state (from the
// last Save/Kill/Stop), or nil.
func (s *Supervisor) StateBytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastState
}

// --- Handle: the admin API surface, delegating to the current runtime. ---

// Stats returns the node's counters (zero while down).
func (s *Supervisor) Stats() node.Stats {
	if rt := s.Runtime(); rt != nil {
		return rt.Stats()
	}
	return node.Stats{}
}

// DebugSnapshot returns the node's diagnostic view (a stub naming the node
// while down).
func (s *Supervisor) DebugSnapshot() node.DebugSnapshot {
	if rt := s.Runtime(); rt != nil {
		return rt.DebugSnapshot()
	}
	return node.DebugSnapshot{Node: string(s.spec.ID)}
}

// TableDump returns the node's reference tables (empty while down).
func (s *Supervisor) TableDump() node.TableDump {
	if rt := s.Runtime(); rt != nil {
		return rt.TableDump()
	}
	return node.TableDump{Node: string(s.spec.ID)}
}

// RunLGC forces one local collection.
func (s *Supervisor) RunLGC() lgc.Result {
	if rt := s.Runtime(); rt != nil {
		return rt.RunLGC()
	}
	return lgc.Result{}
}

// RunDetection forces one detection round, returning detections started.
func (s *Supervisor) RunDetection() int {
	if rt := s.Runtime(); rt != nil {
		return rt.RunDetection()
	}
	return 0
}

// Summarize forces a summary rebuild.
func (s *Supervisor) Summarize() error {
	if rt := s.Runtime(); rt != nil {
		return rt.Summarize()
	}
	return ErrNodeDown
}

// ForceDetect starts a detection at the given scion immediately.
func (s *Supervisor) ForceDetect(candidate ids.RefID) (node.ForceDetectResult, error) {
	if rt := s.Runtime(); rt != nil {
		return rt.ForceDetect(candidate)
	}
	return node.ForceDetectResult{}, ErrNodeDown
}

// Members returns the node's membership directory view (nil while down or
// when membership is disabled).
func (s *Supervisor) Members() []membership.Member {
	if rt := s.Runtime(); rt != nil {
		return rt.Members()
	}
	return nil
}

// Join seeds a new cluster member: the dial address lands in the spec and
// endpoint (surviving restarts) and the directory records the peer as
// joining, from where gossip takes over.
func (s *Supervisor) Join(peer ids.NodeID, addr string) error {
	if s.spec.Config.Membership == nil {
		return errors.New("admin: membership is disabled on this node")
	}
	if s.Runtime() == nil {
		return ErrNodeDown
	}
	s.AddPeer(peer, addr)
	return nil
}

// Drain starts the node's voluntary departure: exported references migrate
// to their referents' owners, then the node declares itself dead.
func (s *Supervisor) Drain() error {
	rt := s.Runtime()
	if rt == nil {
		return ErrNodeDown
	}
	return rt.BeginDrain()
}

// Save serializes the node's durable collector state.
func (s *Supervisor) Save() ([]byte, error) {
	if rt := s.Runtime(); rt != nil {
		data, err := rt.Save()
		if err == nil {
			s.mu.Lock()
			s.lastState = data
			s.mu.Unlock()
		}
		return data, err
	}
	if state := s.StateBytes(); state != nil {
		return state, nil
	}
	return nil, ErrNodeDown
}
