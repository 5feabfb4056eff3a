package cli

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dgc/internal/admin"
	"dgc/internal/node"
)

// Endpoint is one admin API address, optionally tagged with the node it
// serves (every admin server runs exactly one node).
type Endpoint struct {
	Name string // node id when known, "" otherwise
	Addr string // host:port of the admin HTTP listener
}

// endpointFlags are the shared -e / -endpoints-file / -token set every
// command registers.
type endpointFlags struct {
	list  string
	file  string
	token string
}

func (ef *endpointFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&ef.list, "e", "", "admin endpoints, comma-separated [name=]host:port (overrides the endpoints file)")
	fs.StringVar(&ef.file, "endpoints-file", "", "endpoints file written by 'dgcctl up' (default $DGCCTL_ENDPOINTS or dgcctl.endpoints)")
	fs.StringVar(&ef.token, "token", os.Getenv("DGC_ADMIN_TOKEN"), "bearer token for servers started with -admin-token (default $DGC_ADMIN_TOKEN)")
}

// resolve returns the endpoint list: -e beats DGCCTL_ENDPOINTS beats the
// endpoints file.
func (ef *endpointFlags) resolve() ([]Endpoint, error) {
	list := ef.list
	if list == "" {
		if env := os.Getenv("DGCCTL_ENDPOINTS"); env != "" && !strings.Contains(env, string(os.PathSeparator)) && !fileExists(env) {
			list = env
		}
	}
	if list != "" {
		var eps []Endpoint
		for _, item := range strings.Split(list, ",") {
			item = strings.TrimSpace(item)
			if item == "" {
				continue
			}
			name, addr, ok := strings.Cut(item, "=")
			if !ok {
				eps = append(eps, Endpoint{Addr: item})
			} else {
				eps = append(eps, Endpoint{Name: name, Addr: addr})
			}
		}
		if len(eps) == 0 {
			return nil, fmt.Errorf("empty endpoint list %q", list)
		}
		return eps, nil
	}
	file := ef.file
	if file == "" {
		if env := os.Getenv("DGCCTL_ENDPOINTS"); env != "" && fileExists(env) {
			file = env
		} else {
			file = "dgcctl.endpoints"
		}
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("no endpoints: pass -e, set DGCCTL_ENDPOINTS, or run 'dgcctl up' (%v)", err)
	}
	return parseEndpointsFile(data)
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// parseEndpointsFile reads the "name addr" lines 'dgcctl up' writes.
func parseEndpointsFile(data []byte) ([]Endpoint, error) {
	var eps []Endpoint
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch len(fields) {
		case 1:
			eps = append(eps, Endpoint{Addr: fields[0]})
		case 2:
			eps = append(eps, Endpoint{Name: fields[0], Addr: fields[1]})
		default:
			return nil, fmt.Errorf("malformed endpoints line %q", line)
		}
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("endpoints file is empty")
	}
	return eps, nil
}

// Client talks to one admin server.
type Client struct {
	base  string
	token string // bearer token sent on every request when non-empty
	hc    *http.Client
	// sc serves the long-lived /api/v1/events streams: no overall timeout
	// (the server bounds stream duration), cancellation via context.
	sc *http.Client
}

// NewClient returns a client for the admin server at addr (host:port).
func NewClient(addr string) *Client {
	return &Client{
		base: "http://" + addr,
		hc:   &http.Client{Timeout: 10 * time.Second},
		sc:   &http.Client{},
	}
}

// SetToken makes every request carry "Authorization: Bearer <token>", for
// servers started with an admin token.
func (c *Client) SetToken(token string) { c.token = token }

func (c *Client) authorize(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

func (c *Client) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}

func (c *Client) post(path string, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}

func decodeReply(resp *http.Response, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s", apiErr.Error)
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Status fetches /api/v1/status.
func (c *Client) Status() (*admin.StatusReply, error) {
	var reply admin.StatusReply
	if err := c.get("/api/v1/status", &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// TablesReply mirrors the /api/v1/tables payload.
type TablesReply struct {
	SchemaVersion int `json:"schema_version"`
	node.TableDump
}

// Tables fetches one node's scion/stub tables.
func (c *Client) Tables(nodeID string) (*TablesReply, error) {
	var reply TablesReply
	if err := c.get("/api/v1/tables?node="+nodeID, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Detect forces detection on nodeID: a full candidate round, or one scion
// when scion is non-empty.
func (c *Client) Detect(nodeID, scion string) (*admin.DetectReply, error) {
	path := "/api/v1/detect?node=" + nodeID
	if scion != "" {
		path += "&scion=" + strings.ReplaceAll(scion, ">", "%3E")
	}
	var reply admin.DetectReply
	if err := c.post(path, nil, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Inject posts a fault-injection action.
func (c *Client) Inject(nodeID string, req admin.InjectRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.post("/api/v1/inject?node="+nodeID, body, nil)
}

// Members fetches the server's node's view of the membership directory.
func (c *Client) Members() (*admin.MembersReply, error) {
	var reply admin.MembersReply
	if err := c.get("/api/v1/members", &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Join seeds a new member (name + transport dial address) into this
// server's node.
func (c *Client) Join(nodeID, addr string) error {
	body, err := json.Marshal(admin.JoinRequest{Node: nodeID, Addr: addr})
	if err != nil {
		return err
	}
	return c.post("/api/v1/join", body, nil)
}

// Drain starts nodeID's voluntary departure.
func (c *Client) Drain(nodeID string) error {
	return c.post("/api/v1/drain?node="+nodeID, nil, nil)
}

// EventStreamOptions selects the /api/v1/events slice to stream.
type EventStreamOptions struct {
	Node    string        // ?node= (optional; a server streams its own node's journal)
	Since   uint64        // resume after this sequence number
	Kinds   string        // comma-separated kind names, "" = all
	TraceID string        // hex causal trace id, "" = all
	Follow  bool          // long-poll live events after the backlog
	Timeout time.Duration // server-side stream bound in follow mode
}

func (o EventStreamOptions) query() string {
	q := url.Values{}
	if o.Node != "" {
		q.Set("node", o.Node)
	}
	if o.Since > 0 {
		q.Set("since", strconv.FormatUint(o.Since, 10))
	}
	if o.Kinds != "" {
		q.Set("kind", o.Kinds)
	}
	if o.TraceID != "" {
		q.Set("trace", o.TraceID)
	}
	if o.Follow {
		q.Set("follow", "true")
	}
	if o.Timeout > 0 {
		q.Set("timeout", o.Timeout.String())
	}
	return q.Encode()
}

// StreamEvents reads the admin event journal as NDJSON, invoking fn for
// every line (journal events and truncation markers both). fn returning
// false stops the stream early. The returned head is the journal's sequence
// number at request time (the Dgc-Journal-Head header), usable as a
// baseline for a later Since.
func (c *Client) StreamEvents(ctx context.Context, opts EventStreamOptions, fn func(admin.EventJSON) bool) (head uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/events?"+opts.query(), nil)
	if err != nil {
		return 0, err
	}
	c.authorize(req)
	resp, err := c.sc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return 0, fmt.Errorf("%s", apiErr.Error)
		}
		return 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	head, _ = strconv.ParseUint(resp.Header.Get("Dgc-Journal-Head"), 10, 64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev admin.EventJSON
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return head, fmt.Errorf("bad event line %q: %w", line, err)
		}
		if !fn(ev) {
			return head, nil
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return head, err
	}
	return head, nil
}

// JournalHead returns the endpoint journal's current sequence number
// without replaying any events (a since-past-the-end probe).
func (c *Client) JournalHead(ctx context.Context, nodeID string) (uint64, error) {
	return c.StreamEvents(ctx, EventStreamOptions{
		Node:  nodeID,
		Since: math.MaxUint64,
	}, func(admin.EventJSON) bool { return false })
}

// fleet is the resolved set of admin endpoints a command operates on, with
// the node -> client mapping discovered from live status.
type fleet struct {
	eps     []Endpoint
	token   string
	clients map[string]*Client // node id -> client, filled by refresh
	status  map[string]admin.NodeStatus
	build   admin.BuildInfo
}

func newFleet(ef *endpointFlags) (*fleet, error) {
	eps, err := ef.resolve()
	if err != nil {
		return nil, err
	}
	return &fleet{eps: eps, token: ef.token}, nil
}

// refresh queries status from every endpoint, building the merged per-node
// view and the node -> client routing table. Unreachable endpoints named in
// the endpoints file degrade to a "down" row instead of failing the whole
// command (a killed node's admin listener dies with it).
func (f *fleet) refresh() error {
	f.clients = make(map[string]*Client)
	f.status = make(map[string]admin.NodeStatus)
	var firstErr error
	reached := 0
	for _, ep := range f.eps {
		c := NewClient(ep.Addr)
		c.SetToken(f.token)
		reply, err := c.Status()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %v", ep.Addr, err)
			}
			if ep.Name != "" {
				f.status[ep.Name] = admin.NodeStatus{Node: ep.Name, State: "unreachable"}
				f.clients[ep.Name] = c
			}
			continue
		}
		reached++
		f.build = reply.Build
		for id, st := range reply.Nodes {
			f.status[id] = st
			f.clients[id] = c
		}
	}
	if reached == 0 {
		return fmt.Errorf("no admin endpoint reachable: %v", firstErr)
	}
	return nil
}

// client returns the admin client hosting nodeID.
func (f *fleet) client(nodeID string) (*Client, error) {
	if c, ok := f.clients[nodeID]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("no endpoint hosts node %q (known: %s)", nodeID, strings.Join(f.nodeIDs(), ", "))
}

// one returns the only node's id, for single-node clusters where -node can
// be omitted.
func (f *fleet) one() (string, error) {
	ids := f.nodeIDs()
	if len(ids) == 1 {
		return ids[0], nil
	}
	return "", fmt.Errorf("-node is required (cluster has %d nodes: %s)", len(ids), strings.Join(ids, ", "))
}

func (f *fleet) nodeIDs() []string {
	ids := make([]string, 0, len(f.status))
	for id := range f.status {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
