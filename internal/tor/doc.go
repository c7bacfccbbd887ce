// Package tor is an in-process simulator of the Tor network features the
// OnionBots paper relies on (Section III): onion routers, the hourly
// consensus, hidden-service directories (HSDir flag after 25 hours of
// uptime), hidden-service descriptors placed on a fingerprint ring,
// introduction points, rendezvous points, and circuits carrying
// fixed-size 512-byte cells under per-hop AES-CTR layered encryption.
//
// Nothing in this package touches a real network. The simulator exists
// so that the protocol-level behaviours the paper analyses — IP/.onion
// decoupling, address rotation, HSDir positioning attacks (Section
// VI-A), and SOAP clone hosting (Section VI-B) — exercise real code
// paths with real cryptography, deterministically, inside one process.
//
// # Data-plane fast path
//
// The simulated data plane is built to sustain campaign-scale
// experiment loads (millions of dials and cells per run):
//
//   - Circuit crypto is cached per hop: one AES schedule is expanded
//     per network and each hop direction is a value-type CTR stream
//     positioned by a fresh random IV, so building a circuit performs
//     no key expansion and no heap allocation, and forwarding a cell
//     performs no key derivation and no cipher construction
//     (stream.go). Streams that carry a second cell upgrade once to the
//     stdlib's pipelined CTR implementation.
//   - Cells flow through recycled fixed-size scratch buffers
//     (Network.getWire/putWire) and are decoded in place with
//     payload views, so relaying a cell allocates nothing.
//   - Each proxy keeps a verified-descriptor cache consulted before
//     hitting HSDirs. A cached descriptor is reused only when a cheap
//     coherence probe proves a fresh fetch would return byte-identical
//     bytes (same time period, a responsible directory still serving
//     the same signature); entries invalidate on descriptor-id
//     rollover, republish, directory churn, and dial failure. The
//     Ed25519 signature is verified once per descriptor, not once per
//     dial.
//   - Signature verification of immutable bytes (descriptors, intro
//     bindings) is memoized network-wide; outcomes are unchanged
//     because verification is a pure function of its input.
//   - Directory state is plain maps: each HSDir keeps its descriptors
//     in a DescriptorStore (store.go, allocated on the first Put) and
//     the network maps fingerprints to relays. Relay removal
//     swap-removes from the insertion-order slice, and consensus
//     snapshots sort by fingerprint, so map order never reaches output.
//
// All of this is observationally equivalent to the slow path: fixed
// seeds produce byte-identical experiment outputs.
//
// # Client resilience
//
// The client side answers the infrastructure fault plane
// (internal/faults): Proxy.DialAsync retries failed dials under a
// RetryPolicy — bounded attempts, exponential backoff on the
// simulated clock — and after every failure invalidates the cached
// descriptor, marks the guard set dirty, and rotates replica
// preference so the retry is a fresh attempt. A zero policy makes
// DialAsync behave exactly like the synchronous Dial. Path building,
// intro-point selection, and intro repair all skip-and-resample
// relays a stale consensus still lists but that are no longer alive,
// and hosted services detect when their responsible directory set
// moves within a descriptor period and republish to the survivors
// (NetworkStats counts failures, retries, recoveries, and repairs).
//
// Substitution note (see docs/ARCHITECTURE.md): hidden-service
// identities are
// Ed25519 keys rather than the RSA-1024 keys of 2015-era Tor. The
// paper's address-rotation scheme requires the bot and the botmaster to
// derive the same key independently from a shared seed; Ed25519 key
// derivation is deterministic by construction, while crypto/rsa's
// generator is deliberately not. Every derived quantity keeps the
// paper's formulas: the onion address is the base32 encoding of the
// first 10 bytes of SHA-1 of the public key, and descriptor IDs follow
// descriptor-id = H(identifier || H(time-period || cookie || replica)).
package tor
