package node

import (
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
// sub-protocol with the owner and delay the invocation until every ack has
// arrived. While exports are in flight the references are pinned so the
// local collector cannot drop the exporter's stubs (the paper's remoting
// instrumentation gets this for free from the thread stack).

// Invoke performs an asynchronous remote invocation of method on target,
// exporting args to the callee. cb (optional) receives the reply inside
// the machine. Invoke returns an error only for immediately detectable
// misuse; transport failures surface as a failed or expired reply.
func (m *Machine) Invoke(target ids.GlobalRef, method string, args []ids.GlobalRef, cb ReplyFunc) error {
	if target.Node == m.id {
		return m.errf("Invoke: target %v is local", target)
	}
	if !m.cfg.DisableDGC {
		if m.table.Stub(target) == nil && m.pins[target] == 0 {
			return m.errf("Invoke: reference %v not held by this process", target)
		}
		for _, a := range args {
			if a.Node == m.id {
				if !m.heap.Contains(a.Obj) {
					return m.errf("Invoke: exported object %d does not exist", a.Obj)
				}
				continue
			}
			if m.table.Stub(a) == nil && m.pins[a] == 0 {
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
				m.callback(func() { cb(Mutator{n: m}, Reply{OK: false, Err: "export failed: " + errMsg}) })
			}
			return
		}
		var stubIC uint64
		if !m.cfg.DisableDGC {
			if ic, err := m.table.BumpStubIC(target); err == nil {
				stubIC = ic
			}
		}
		pc := &pendingCall{target: target, pinned: pinned, cb: cb}
		if m.cfg.CallTimeoutTicks > 0 {
			pc.deadline = m.clock + m.cfg.CallTimeoutTicks
		}
		m.pendingCalls[callID] = pc
		m.met.InvokesSent.Inc()
		m.send(target.Node, &wire.InvokeRequest{
			CallID: callID,
			From:   m.id,
			Target: target,
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
// through CreateScion/Ack.
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
	var remoteOwners []ids.GlobalRef
	for _, r := range refs {
		switch r.Node {
		case m.id:
			// We own the object: a brand-new reference, not a copy. Create
			// the scion directly.
			if _, created := m.table.EnsureScion(holder, r.Obj); created {
				m.met.ScionsCreated.Inc()
			}
			m.selector.Touch(ids.RefID{Src: holder, Dst: r}, m.clock)
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
			remoteOwners = append(remoteOwners, r)
		}
	}
	if len(remoteOwners) == 0 {
		ready(true, "")
		return
	}
	m.nextExportID++
	exportID := m.nextExportID
	m.pendingExports[exportID] = &pendingExport{waiting: len(remoteOwners), ready: ready}
	for _, r := range remoteOwners {
		m.send(r.Node, &wire.CreateScion{
			ExportID: exportID,
			From:     m.id,
			Holder:   holder,
			Obj:      r.Obj,
		})
	}
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
	m.nextExportID++
	exportID := m.nextExportID
	m.pin(ref)
	m.pendingExports[exportID] = &pendingExport{
		waiting: 1,
		ready: func(ok bool, _ string) {
			if ok {
				m.table.EnsureStub(ref)
			}
			if cb != nil {
				m.callback(func() { cb(Mutator{n: m}, ok) })
			}
			m.unpin(ref)
		},
	}
	m.send(ref.Node, &wire.CreateScion{
		ExportID: exportID,
		From:     m.id,
		Holder:   m.id,
		Obj:      ref.Obj,
	})
	return nil
}

// handleInvokeRequest executes an incoming invocation.
func (m *Machine) handleInvokeRequest(msg *wire.InvokeRequest) {
	m.met.InvokesHandled.Inc()
	m.emit(trace.KindInvoke, "from=%s target=%d method=%s args=%d",
		msg.From, msg.Target.Obj, msg.Method, len(msg.Args))
	reply := &wire.InvokeReply{CallID: msg.CallID, From: m.id, Target: msg.Target}

	if !m.cfg.DisableDGC {
		// The caller held a stub, so our scion exists (create it defensively
		// if a mixed-configuration caller skipped the protocol), and the
		// invocation bumps its counter (§3.2).
		sc, created := m.table.EnsureScion(msg.From, msg.Target.Obj)
		if created {
			m.met.ScionsCreated.Inc()
		}
		sc.IC++
		m.selector.Touch(ids.RefID{Src: msg.From, Dst: msg.Target}, m.clock)
	}

	if !m.heap.Contains(msg.Target.Obj) {
		reply.Err = "no such object"
		m.send(msg.From, reply)
		return
	}
	handler, ok := m.methods[msg.Method]
	if !ok {
		reply.Err = "no such method: " + msg.Method
		m.send(msg.From, reply)
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
			if sc := m.table.Scion(msg.From, a.Obj); sc != nil {
				sc.IC++
				m.selector.Touch(ids.RefID{Src: msg.From, Dst: a}, m.clock)
			}
		}
	}

	var returns []ids.GlobalRef
	m.callback(func() { returns = handler(Mutator{n: m}, msg.Target.Obj, msg.Args) })
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
			if sc := m.table.Scion(msg.From, msg.Target.Obj); sc != nil {
				sc.IC++
				reply.ScionIC = sc.IC
			}
		}
		m.send(msg.From, reply)
	}

	if m.cfg.DisableDGC || len(returns) == 0 {
		finish(true, "")
		return
	}
	// Pin remote returns until their scions are confirmed.
	var pinned []ids.GlobalRef
	for _, r := range returns {
		if r.Node != m.id && r.Node != msg.From {
			m.pin(r)
			pinned = append(pinned, r)
		}
	}
	m.exportRefs(returns, msg.From, func(ok bool, errMsg string) {
		finish(ok, errMsg)
		for _, r := range pinned {
			m.unpin(r)
		}
	})
}

// handleInvokeReply completes a pending call.
func (m *Machine) handleInvokeReply(msg *wire.InvokeReply) {
	pc, ok := m.pendingCalls[msg.CallID]
	if !ok {
		return // expired or duplicate: returned refs self-heal via NewSetStubs
	}
	delete(m.pendingCalls, msg.CallID)
	m.met.RepliesHandled.Inc()

	if !m.cfg.DisableDGC {
		// Reply-side counter bump on the stub end (§3.2: "invocation (or
		// reply)").
		if st := m.table.Stub(pc.target); st != nil {
			st.IC++
		}
		// Import returned references. Returns WE own were copies of the
		// callee's reference to them: bump the matching scion counter.
		for _, r := range msg.Returns {
			if r.Node != m.id {
				m.table.EnsureStub(r)
				m.pin(r)
				defer m.unpin(r)
				continue
			}
			if sc := m.table.Scion(msg.From, r.Obj); sc != nil {
				sc.IC++
				m.selector.Touch(ids.RefID{Src: msg.From, Dst: r}, m.clock)
			}
		}
	}
	for _, r := range pc.pinned {
		m.unpin(r)
	}
	if !msg.OK {
		m.met.CallsFailed.Inc()
	}
	if pc.cb != nil {
		m.callback(func() { pc.cb(Mutator{n: m}, Reply{OK: msg.OK, Err: msg.Err, Returns: msg.Returns}) })
	}
}

// handleCreateScion serves a scion-creation request.
func (m *Machine) handleCreateScion(msg *wire.CreateScion) {
	ack := &wire.CreateScionAck{ExportID: msg.ExportID, From: m.id}
	if !m.heap.Contains(msg.Obj) {
		ack.Err = "no such object"
	} else {
		if _, created := m.table.EnsureScion(msg.Holder, msg.Obj); created {
			m.met.ScionsCreated.Inc()
		}
		m.selector.Touch(ids.RefID{Src: msg.Holder, Dst: ids.GlobalRef{Node: m.id, Obj: msg.Obj}}, m.clock)
		// The exporter copied ITS reference to our object: bump the
		// matching scion counter (it bumped the stub side). A bootstrap
		// acquisition (Holder == From) is a fresh grant, not a copy.
		if msg.Holder != msg.From {
			if sc := m.table.Scion(msg.From, msg.Obj); sc != nil {
				sc.IC++
				m.selector.Touch(ids.RefID{Src: msg.From, Dst: ids.GlobalRef{Node: m.id, Obj: msg.Obj}}, m.clock)
			}
		}
		ack.OK = true
	}
	m.send(msg.From, ack)
}

// handleCreateScionAck resolves one pending export.
func (m *Machine) handleCreateScionAck(msg *wire.CreateScionAck) {
	pe, ok := m.pendingExports[msg.ExportID]
	if !ok {
		return
	}
	if !msg.OK {
		pe.failed = true
		pe.errMsg = msg.Err
	}
	pe.waiting--
	if pe.waiting <= 0 {
		delete(m.pendingExports, msg.ExportID)
		pe.ready(!pe.failed, pe.errMsg)
	}
}
