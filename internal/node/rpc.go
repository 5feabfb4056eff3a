package node

import (
	"slices"

	"dgc/internal/ids"
	"dgc/internal/trace"
	"dgc/internal/wire"
)

// Remote invocation with reference export/import.
//
// The protocol preserves the reference-listing safety invariant
// scion-before-stub: before a reference is handed to a new holder, its
// owner's scion for that holder exists. Exports of self-owned references
// create the scion locally; third-party exports run the CreateScion/Ack
// sub-protocol with each owner (one CreateScion per owner, listing its
// objects) and delay the invocation until every owner has answered. While
// exports are in flight the references are pinned so the local collector
// cannot drop the exporter's stubs (the paper's remoting instrumentation
// gets this for free from the thread stack).

// Invoke performs an asynchronous remote invocation of method on target,
// exporting args to the callee. cb (optional) receives the reply inside
// the machine. Invoke returns an error only for immediately detectable
// misuse; transport failures surface as a failed or expired reply.
func (m *Machine) Invoke(target ids.GlobalRef, method string, args []ids.GlobalRef, cb ReplyFunc) error {
	if target.Node == m.id {
		return m.errf("Invoke: target %v is local", target)
	}
	if !m.cfg.DisableDGC {
		if !m.table.HasStub(target) && m.pins[target] == 0 {
			return m.errf("Invoke: reference %v not held by this process", target)
		}
		for _, a := range args {
			if a.Node == m.id {
				if !m.heap.Contains(a.Obj) {
					return m.errf("Invoke: exported object %d does not exist", a.Obj)
				}
				continue
			}
			if !m.table.HasStub(a) && m.pins[a] == 0 {
				return m.errf("Invoke: exported reference %v not held", a)
			}
		}
	}

	// Pin the target and remote args until the reply (or expiry).
	pinned := make([]ids.GlobalRef, 0, 1+len(args))
	pinRef := func(r ids.GlobalRef) {
		if r.Node != m.id {
			m.pin(r)
			pinned = append(pinned, r)
		}
	}
	if !m.cfg.DisableDGC {
		pinRef(target)
		for _, a := range args {
			pinRef(a)
		}
	}

	m.nextCallID++
	callID := m.nextCallID
	argsCopy := append([]ids.GlobalRef(nil), args...)

	send := func(ok bool, errMsg string) {
		if !ok {
			for _, r := range pinned {
				m.unpin(r)
			}
			m.met.CallsFailed.Inc()
			if cb != nil {
				cb(Mutator{n: m}, Reply{OK: false, Err: "export failed: " + errMsg})
			}
			return
		}
		var stubIC uint64
		if !m.cfg.DisableDGC {
			if ic, err := m.table.BumpStubIC(target); err == nil {
				stubIC = ic
			}
		}
		m.pendingCalls[callID] = &pendingCall{target: target, pinned: pinned, cb: cb, deadline: m.callDeadline()}
		m.met.InvokesSent.Inc()
		m.send(target.Node, &wire.InvokeRequest{
			CallID: callID,
			Obj:    target.Obj,
			Method: method,
			Args:   argsCopy,
			StubIC: stubIC,
		})
	}

	if m.cfg.DisableDGC {
		send(true, "")
		return nil
	}
	m.exportRefs(argsCopy, target.Node, send)
	return nil
}

// exportRefs ensures scions exist for every reference in refs on behalf of
// the new holder, then calls ready inside the machine. Self-owned
// references get their scions synchronously; third-party references go
// through CreateScion/Ack, one CreateScion per owner listing every argument
// it owns, repeats included.
//
// Copying an existing remote reference counts as mutator activity on it:
// the exporter bumps its stub-side counter here and the owner bumps the
// matching scion when it learns of the copy (in handleCreateScion for
// third-party exports, in handleInvokeRequest/-Reply for references owned
// by the receiving end). Without this, a root migration performed purely by
// reference copying would slip past the §3.2 barrier ("there have been
// remote invocations, and possibly reference copying, along the CDM-Graph",
// safety rule 3).
func (m *Machine) exportRefs(refs []ids.GlobalRef, holder ids.NodeID, ready func(ok bool, errMsg string)) {
	var owners []ids.NodeID
	var objs [][]ids.ObjID // objs[i] is what owners[i] is asked for
	for _, r := range refs {
		switch r.Node {
		case m.id:
			// We own the object: a brand-new reference, not a copy. Create
			// the scion directly.
			if m.table.EnsureScion(holder, r.Obj, m.clock) {
				m.met.ScionsCreated.Inc()
			}
		case holder:
			// The holder owns it; importing turns it into a local ref.
			// Still a copy of OUR reference to it: bump the stub side (the
			// holder bumps its scion when the request/reply arrives).
			if _, err := m.table.BumpStubIC(r); err != nil {
				m.table.EnsureStub(r) // pinned-only reference: materialize
				_, _ = m.table.BumpStubIC(r)
			}
		default:
			if _, err := m.table.BumpStubIC(r); err != nil {
				m.table.EnsureStub(r)
				_, _ = m.table.BumpStubIC(r)
			}
			i := slices.Index(owners, r.Node)
			if i < 0 {
				i = len(owners)
				owners = append(owners, r.Node)
				objs = append(objs, nil)
			}
			objs[i] = append(objs[i], r.Obj)
		}
	}
	if len(owners) == 0 {
		ready(true, "")
		return
	}
	exportID := m.beginExport(owners, ready)
	for i, owner := range owners {
		m.send(owner, &wire.CreateScion{
			ExportID: exportID,
			Holder:   holder,
			Objs:     objs[i],
		})
	}
}

// callDeadline is the clock tick after which a call or export started now
// expires (0 = never: Config.CallTimeoutTicks is unset).
func (m *Machine) callDeadline() uint64 {
	if m.cfg.CallTimeoutTicks == 0 {
		return 0
	}
	return m.clock + m.cfg.CallTimeoutTicks
}

// beginExport registers an export awaiting the acks of the owners in waiting
// and returns its id. It fails through ready(false, ...) when an ack reports
// failure or, like a pending call, when its deadline passes (expireCalls): a
// lost CreateScion or ack must not pin the exported references forever. An
// ack arriving after expiry finds no entry and is ignored; the holder never
// got a stub, so its next stub set deletes any scion the owner created.
func (m *Machine) beginExport(waiting []ids.NodeID, ready func(ok bool, errMsg string)) uint64 {
	m.nextExportID++
	m.pendingExports[m.nextExportID] = &pendingExport{waiting: waiting, ready: ready, deadline: m.callDeadline()}
	return m.nextExportID
}

// AcquireRemote bootstraps possession of a remote reference: it runs the
// CreateScion protocol with the owner on this machine's behalf and, once
// acknowledged, materializes a stub and invokes cb. This models an external
// name service handing out references (the way the paper's OBIWAN clients
// obtain their first proxy). The acquired reference is pinned for the
// duration of cb; store it somewhere reachable or it will be collected.
func (m *Machine) AcquireRemote(ref ids.GlobalRef, cb func(mut Mutator, ok bool)) error {
	if ref.Node == m.id {
		return m.errf("AcquireRemote: %v is local", ref)
	}
	m.pin(ref)
	exportID := m.beginExport([]ids.NodeID{ref.Node}, func(ok bool, _ string) {
		if ok {
			m.table.EnsureStub(ref)
		}
		if cb != nil {
			cb(Mutator{n: m}, ok)
		}
		m.unpin(ref)
	})
	m.send(ref.Node, &wire.CreateScion{
		ExportID: exportID,
		Holder:   m.id,
		Objs:     []ids.ObjID{ref.Obj},
	})
	return nil
}

// handleInvokeRequest executes an incoming invocation from caller.
func (m *Machine) handleInvokeRequest(caller ids.NodeID, msg *wire.InvokeRequest) {
	m.met.InvokesHandled.Inc()
	m.emit(trace.KindInvoke, "from=%s target=%d method=%s args=%d",
		caller, msg.Obj, msg.Method, len(msg.Args))
	reply := &wire.InvokeReply{CallID: msg.CallID}

	if !m.cfg.DisableDGC {
		// The caller held a stub, so our scion exists (create it defensively
		// if a mixed-configuration caller skipped the protocol), and the
		// invocation bumps its counter (§3.2).
		if m.table.EnsureScion(caller, msg.Obj, m.clock) {
			m.met.ScionsCreated.Inc()
		}
		_, _ = m.table.BumpScionIC(caller, msg.Obj, m.clock) // ensured above
	}

	if !m.heap.Contains(msg.Obj) {
		reply.Err = "no such object"
		m.send(caller, reply)
		return
	}
	handler, ok := m.methods[msg.Method]
	if !ok {
		reply.Err = "no such method: " + msg.Method
		m.send(caller, reply)
		return
	}

	// Import argument references: materialize stubs for refs owned
	// elsewhere (their scions were created by the exporter). Arguments WE
	// own were reference copies of the caller's stub to them: bump the
	// matching scion-side counter (the caller bumped its stub side in
	// exportRefs).
	if !m.cfg.DisableDGC {
		for _, a := range msg.Args {
			if a.Node != m.id {
				m.table.EnsureStub(a)
				continue
			}
			_, _ = m.table.BumpScionIC(caller, a.Obj, m.clock) // no scion: no counter to keep
		}
	}

	returns := handler(Mutator{n: m}, msg.Obj, msg.Args)
	reply.OK = true
	reply.Returns = returns

	finish := func(ok bool, errMsg string) {
		if !ok {
			reply.OK = false
			reply.Err = "return export failed: " + errMsg
			reply.Returns = nil
		}
		if !m.cfg.DisableDGC {
			// The reply travels back through the same reference: bump the
			// scion-side counter and piggy-back it.
			if ic, err := m.table.BumpScionIC(caller, msg.Obj, m.clock); err == nil {
				reply.ScionIC = ic
			}
		}
		m.send(caller, reply)
	}

	if m.cfg.DisableDGC || len(returns) == 0 {
		finish(true, "")
		return
	}
	// Pin remote returns until their scions are confirmed.
	var pinned []ids.GlobalRef
	for _, r := range returns {
		if r.Node != m.id && r.Node != caller {
			m.pin(r)
			pinned = append(pinned, r)
		}
	}
	m.exportRefs(returns, caller, func(ok bool, errMsg string) {
		finish(ok, errMsg)
		for _, r := range pinned {
			m.unpin(r)
		}
	})
}

// handleInvokeReply completes a pending call to callee.
func (m *Machine) handleInvokeReply(callee ids.NodeID, msg *wire.InvokeReply) {
	pc, ok := m.pendingCalls[msg.CallID]
	if !ok {
		return // expired or duplicate: returned refs self-heal via NewSetStubs
	}
	delete(m.pendingCalls, msg.CallID)
	m.met.RepliesHandled.Inc()

	if !m.cfg.DisableDGC {
		// Reply-side counter bump on the stub end (§3.2: "invocation (or
		// reply)"). A stub no longer held has no counter to keep.
		_, _ = m.table.BumpStubIC(pc.target)
		// Import returned references. Returns WE own were copies of the
		// callee's reference to them: bump the matching scion counter.
		for _, r := range msg.Returns {
			if r.Node != m.id {
				m.table.EnsureStub(r)
				m.pin(r)
				defer m.unpin(r)
				continue
			}
			_, _ = m.table.BumpScionIC(callee, r.Obj, m.clock) // no scion: no counter to keep
		}
	}
	for _, r := range pc.pinned {
		m.unpin(r)
	}
	if !msg.OK {
		m.met.CallsFailed.Inc()
	}
	if pc.cb != nil {
		pc.cb(Mutator{n: m}, Reply{OK: msg.OK, Err: msg.Err, Returns: msg.Returns})
	}
}

// handleCreateScion serves an exporter's scion-creation request: a scion for
// every listed object that exists, then the request's entry in the
// exporter's ack.
func (m *Machine) handleCreateScion(exporter ids.NodeID, msg *wire.CreateScion) {
	var errMsg string
	for _, obj := range msg.Objs {
		if !m.heap.Contains(obj) {
			errMsg = "no such object"
			continue
		}
		if m.table.EnsureScion(msg.Holder, obj, m.clock) {
			m.met.ScionsCreated.Inc()
		}
		// The exporter copied ITS reference to our object: bump the
		// matching scion counter (it bumped the stub side). A bootstrap
		// acquisition (the exporter is the holder) is a fresh grant, not a
		// copy.
		if msg.Holder != exporter {
			_, _ = m.table.BumpScionIC(exporter, obj, m.clock) // no scion: no counter to keep
		}
	}
	m.ackExport(exporter, wire.ExportAck{ExportID: msg.ExportID, Err: errMsg})
}

// ackExport answers one CreateScion. The first answer to an exporter since
// the last flush is sent as a new CreateScionAck; later ones join that
// message, which is still in the effect list, so every entry leaves after
// its scions exist and the exporter gets one ack per flush. A CreateScion
// repeated within the window keeps its first entry: an ack names each
// export once.
func (m *Machine) ackExport(exporter ids.NodeID, e wire.ExportAck) {
	ack := m.acks[exporter]
	if ack == nil {
		ack = &wire.CreateScionAck{Acks: []wire.ExportAck{e}}
		m.acks[exporter] = ack
		m.send(exporter, ack)
		return
	}
	for _, a := range ack.Acks {
		if a.ExportID == e.ExportID {
			return
		}
	}
	ack.Acks = append(ack.Acks, e)
}

// handleCreateScionAck resolves each export that owner lists, in turn. An
// export completes once every owner it waits on has answered; an answer from
// an owner not (or no longer) awaited changes nothing, so a duplicated ack
// cannot stand in for another owner's.
func (m *Machine) handleCreateScionAck(owner ids.NodeID, msg *wire.CreateScionAck) {
	for _, a := range msg.Acks {
		pe, ok := m.pendingExports[a.ExportID]
		if !ok {
			continue
		}
		i := slices.Index(pe.waiting, owner)
		if i < 0 {
			continue
		}
		pe.waiting = slices.Delete(pe.waiting, i, i+1)
		if a.Err != "" {
			pe.failed = true
			pe.errMsg = a.Err
		}
		if len(pe.waiting) == 0 {
			delete(m.pendingExports, a.ExportID)
			pe.ready(!pe.failed, pe.errMsg)
		}
	}
}
