package tor

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"
)

// ErrNotHSDir reports a descriptor operation against a relay that does
// not currently hold the HSDir flag.
var ErrNotHSDir = errors.New("tor: relay is not an HSDir")

// ErrNoSuchCircuit reports a cell for an unknown circuit id.
var ErrNoSuchCircuit = errors.New("tor: no such circuit")

// RelayStats counts the observable work a relay performed. The
// simulator's "measurement" story leans on these: they are what a
// network observer positioned at the relay could count.
type RelayStats struct {
	CellsRelayed      int
	DescriptorsStored int
	DescriptorsServed int
	IntrosForwarded   int
	RendezvousJoins   int
}

// Relay is one simulated onion router.
type Relay struct {
	id       *Identity
	fp       Fingerprint
	net      *Network
	joined   time.Time
	orderIdx int // position in Network.order, maintained by swap-remove
	stats    RelayStats
	// malicious marks an adversary-controlled relay (Section VI-A): it
	// accepts descriptor uploads but refuses to serve them, denying
	// access to the hidden service.
	malicious bool

	circuits map[uint64]*relayCirc
	// introByService maps a hidden service's identifier to the circuit
	// over which the service asked this relay to act as an introduction
	// point.
	introByService map[ServiceID]uint64
	// rendByCookie maps a rendezvous cookie to the waiting client
	// circuit.
	rendByCookie map[[cookieSize]byte]uint64
	// store holds hidden-service descriptors when this relay is an
	// HSDir.
	store DescriptorStore
}

const cookieSize = 16

// relayCirc is this relay's per-circuit routing state.
type relayCirc struct {
	fwd, bwd ctrStream
	prev     *Relay      // nil when the previous hop is the origin proxy
	origin   *OnionProxy // non-nil only at the first hop
	next     *Relay      // nil when this relay is the terminal hop
	// linked is the circuit id of the partner circuit once this relay,
	// acting as a rendezvous point, has joined two circuits. Zero means
	// not linked.
	linked uint64
	// introService, when non-zero, marks this as a service-side intro
	// circuit for that service.
	introService ServiceID
}

// Fingerprint returns the relay identity digest.
func (r *Relay) Fingerprint() Fingerprint { return r.fp }

// Stats returns a copy of the relay's counters.
func (r *Relay) Stats() RelayStats { return r.stats }

// SetMalicious toggles adversarial descriptor suppression.
func (r *Relay) SetMalicious(v bool) { r.malicious = v }

// Uptime reports how long the relay has been part of the network.
func (r *Relay) Uptime(now time.Time) time.Duration { return now.Sub(r.joined) }

// isHSDir reports whether the relay holds the HSDir flag in the current
// consensus.
func (r *Relay) isHSDir() bool {
	c := r.net.Consensus()
	if c == nil {
		return false
	}
	return c.IsHSDir(r.fp)
}

// StoreDescriptor accepts a descriptor upload. Directories verify the
// descriptor signature and identity binding before storing, as real
// HSDirs do.
func (r *Relay) StoreDescriptor(id DescriptorID, d *Descriptor) error {
	return r.storeDescriptor(id, d, false)
}

// storeDescriptorOwned is StoreDescriptor for a descriptor the caller
// hands over and will never mutate (publishDescriptors' per-replica
// copies): the defensive ingest clone is skipped, everything else —
// HSDir gate, verification, stats — is identical.
func (r *Relay) storeDescriptorOwned(id DescriptorID, d *Descriptor) error {
	return r.storeDescriptor(id, d, true)
}

func (r *Relay) storeDescriptor(id DescriptorID, d *Descriptor, owned bool) error {
	if !r.isHSDir() {
		return fmt.Errorf("%w: %s", ErrNotHSDir, r.fp)
	}
	var sid ServiceID
	if len(d.Pub) == ed25519.PublicKeySize {
		sid = ServiceIDOf(d.Pub)
	}
	if err := r.net.verifyDescriptor(sid, d); err != nil {
		return err
	}
	if !owned {
		d = d.clone()
	}
	r.store.Put(id, d)
	r.stats.DescriptorsStored++
	return nil
}

// FetchDescriptor serves a stored descriptor, or nil if the relay has
// none (or is malicious, or the descriptor expired).
func (r *Relay) FetchDescriptor(id DescriptorID) *Descriptor {
	if r.malicious {
		return nil
	}
	d, ok := r.store.Get(id)
	if !ok {
		return nil
	}
	if r.net.Now().Sub(d.PublishedAt) > r.net.cfg.DescriptorTTL {
		r.store.Delete(id)
		return nil
	}
	r.stats.DescriptorsServed++
	return d.clone()
}

// wouldServe reports whether FetchDescriptor(id) would return a
// descriptor byte-identical to d. This is the coherence probe behind the
// proxies' verified-descriptor cache: it mirrors FetchDescriptor's
// malicious/presence/TTL checks but performs no clone and no signature
// verification, and leaves the serving stats untouched.
func (r *Relay) wouldServe(id DescriptorID, d *Descriptor) bool {
	if r.malicious {
		return false
	}
	s, ok := r.store.Get(id)
	if !ok {
		return false
	}
	if r.net.Now().Sub(s.PublishedAt) > r.net.cfg.DescriptorTTL {
		return false
	}
	return s.equal(d)
}

// receiveForward processes a forward-direction wire cell: strip this
// relay's onion layer, then forward or, at the terminal hop, interpret.
// The cell is processed synchronously hop to hop, so a single scratch
// buffer flows through the whole path instead of being copied per hop.
func (r *Relay) receiveForward(circID uint64, wire *[CellSize]byte) {
	rc, ok := r.circuits[circID]
	if !ok {
		return // circuit torn down; drop silently as Tor does
	}
	rc.fwd.xorBody(wire)
	r.stats.CellsRelayed++
	r.net.stats.CellsSwitched++
	if rc.next != nil {
		rc.next.receiveForward(circID, wire)
		return
	}
	var cell Cell
	if err := decodeCellView(&cell, wire); err != nil {
		return
	}
	r.handleTerminal(circID, rc, &cell)
}

// receiveBackward processes a backward-direction wire cell: add this
// relay's onion layer and pass toward the origin.
func (r *Relay) receiveBackward(circID uint64, wire *[CellSize]byte) {
	rc, ok := r.circuits[circID]
	if !ok {
		return
	}
	rc.bwd.xorBody(wire)
	r.stats.CellsRelayed++
	r.net.stats.CellsSwitched++
	if rc.prev != nil {
		rc.prev.receiveBackward(circID, wire)
		return
	}
	if rc.origin != nil {
		rc.origin.deliverBackward(circID, wire)
	}
}

// sendBackwardFromTerminal originates a cell at this (terminal) relay
// and pushes it toward the circuit origin. payload may alias a forward
// wire buffer: it is copied into the fresh backward buffer before any
// onion layer touches it.
func (r *Relay) sendBackwardFromTerminal(circID uint64, cmd Command, flags byte, payload []byte) {
	cell := Cell{CircID: circID, Cmd: cmd, Flags: flags, Payload: payload}
	wire := r.net.getWire()
	defer r.net.putWire(wire)
	if err := cell.encodeInto(wire); err != nil {
		return
	}
	r.receiveBackward(circID, wire)
}

// handleTerminal interprets a cell addressed to this relay.
func (r *Relay) handleTerminal(circID uint64, rc *relayCirc, cell *Cell) {
	switch cell.Cmd {
	case CmdEstablishIntro:
		r.handleEstablishIntro(circID, rc, cell.Payload)
	case CmdIntroduce1:
		r.handleIntroduce1(circID, cell.Payload)
	case CmdEstablishRendezvous:
		r.handleEstablishRendezvous(circID, cell.Payload)
	case CmdRendezvous1:
		r.handleRendezvous1(circID, rc, cell.Payload)
	case CmdData:
		if rc.linked != 0 {
			if lc, ok := r.circuits[rc.linked]; ok && lc != nil {
				r.sendBackwardFromTerminal(rc.linked, CmdData, cell.Flags, cell.Payload)
			}
		}
	case CmdEnd:
		r.teardown(circID, true)
	default:
		// Unknown terminal command: drop.
	}
}

// handleEstablishIntro registers this relay as an introduction point.
// Payload: servicePub(32) || sig(64) where sig covers "intro" || pub.
func (r *Relay) handleEstablishIntro(circID uint64, rc *relayCirc, p []byte) {
	if len(p) != ed25519.PublicKeySize+ed25519.SignatureSize {
		return
	}
	pub := ed25519.PublicKey(p[:ed25519.PublicKeySize])
	sig := p[ed25519.PublicKeySize:]
	if !r.net.verifyIntroBinding(pub, sig) {
		return // refuse to introduce for a key the caller does not hold
	}
	var sid ServiceID
	sum := FingerprintOf(pub)
	copy(sid[:], sum[:10])
	r.introByService[sid] = circID
	rc.introService = sid
}

// introBinding is the byte string an ESTABLISH_INTRO signature covers.
func introBinding(pub ed25519.PublicKey) []byte {
	return append([]byte("establish-intro:"), pub...)
}

// handleIntroduce1 forwards an introduction request to the hidden
// service. Payload: serviceID(10) || rpFP(20) || cookie(16).
func (r *Relay) handleIntroduce1(clientCirc uint64, p []byte) {
	if len(p) != 10+20+cookieSize {
		return
	}
	var sid ServiceID
	copy(sid[:], p[:10])
	introCirc, ok := r.introByService[sid]
	if !ok {
		// Service unknown or stopped: report failure to the client.
		r.sendBackwardFromTerminal(clientCirc, CmdEnd, 0, nil)
		return
	}
	r.stats.IntrosForwarded++
	r.sendBackwardFromTerminal(introCirc, CmdIntroduce2, 0, p[10:])
}

// handleEstablishRendezvous parks a client circuit under its cookie.
func (r *Relay) handleEstablishRendezvous(circID uint64, p []byte) {
	if len(p) != cookieSize {
		return
	}
	var ck [cookieSize]byte
	copy(ck[:], p)
	r.rendByCookie[ck] = circID
}

// handleRendezvous1 joins the service circuit to the waiting client
// circuit and confirms to the client.
func (r *Relay) handleRendezvous1(serviceCirc uint64, rc *relayCirc, p []byte) {
	if len(p) != cookieSize {
		return
	}
	var ck [cookieSize]byte
	copy(ck[:], p)
	clientCirc, ok := r.rendByCookie[ck]
	if !ok {
		r.sendBackwardFromTerminal(serviceCirc, CmdEnd, 0, nil)
		return
	}
	delete(r.rendByCookie, ck)
	ccirc, ok := r.circuits[clientCirc]
	if !ok {
		r.sendBackwardFromTerminal(serviceCirc, CmdEnd, 0, nil)
		return
	}
	rc.linked = clientCirc
	ccirc.linked = serviceCirc
	r.stats.RendezvousJoins++
	r.sendBackwardFromTerminal(clientCirc, CmdRendezvous2, 0, nil)
}

// teardown removes circuit state at this relay and propagates the END
// both onward and across any rendezvous link.
func (r *Relay) teardown(circID uint64, fromPrev bool) {
	rc, ok := r.circuits[circID]
	if !ok {
		return
	}
	delete(r.circuits, circID)
	if rc.introService != (ServiceID{}) {
		if cur, ok := r.introByService[rc.introService]; ok && cur == circID {
			delete(r.introByService, rc.introService)
		}
	}
	if rc.linked != 0 {
		linked := rc.linked
		rc.linked = 0
		if lc, ok := r.circuits[linked]; ok {
			lc.linked = 0
			r.sendBackwardFromTerminal(linked, CmdEnd, 0, nil)
			delete(r.circuits, linked)
		}
	}
	if fromPrev && rc.next != nil {
		// Forward the teardown without onion processing; END is a
		// control signal and the next hops drop state on sight.
		end := Cell{CircID: circID, Cmd: CmdEnd}
		wire := r.net.getWire()
		defer r.net.putWire(wire)
		if err := end.encodeInto(wire); err == nil {
			rc.next.teardownForward(circID, wire)
		}
	}
}

// teardownForward propagates an END toward the terminal hop.
func (r *Relay) teardownForward(circID uint64, wire *[CellSize]byte) {
	rc, ok := r.circuits[circID]
	if !ok {
		return
	}
	delete(r.circuits, circID)
	if rc.introService != (ServiceID{}) {
		if cur, ok := r.introByService[rc.introService]; ok && cur == circID {
			delete(r.introByService, rc.introService)
		}
	}
	if rc.linked != 0 {
		if lc, ok := r.circuits[rc.linked]; ok {
			lc.linked = 0
			r.sendBackwardFromTerminal(rc.linked, CmdEnd, 0, nil)
			delete(r.circuits, rc.linked)
		}
	}
	if rc.next != nil {
		rc.next.teardownForward(circID, wire)
	}
}
