package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"onionbots/internal/botcrypto"
	"onionbots/internal/pow"
	"onionbots/internal/sim"
	"onionbots/internal/tor"
)

// probeBatches is how many timed batches each unit-cost probe runs; it
// reports the median batch.
const probeBatches = 3

// batch runs one timed batch of a probe and returns how many
// operations it did and how long they took.
type batch func() (ops int, took time.Duration, err error)

// timed runs body once and times it.
func timed(ops int, body func() error) (int, time.Duration, error) {
	start := time.Now()
	err := body()
	return ops, time.Since(start), err
}

// probe runs probeBatches batches and returns the median cost per
// operation in the given unit.
func probe(unit time.Duration, fn batch) (float64, error) {
	per := make([]float64, 0, probeBatches)
	for i := 0; i < probeBatches; i++ {
		ops, took, err := fn()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(took)/float64(unit)/float64(ops))
	}
	return median(per), nil
}

// unitProbes times the public fast paths of the protocol layers for a
// fixed number of operations each.
func unitProbes() (map[string]float64, error) {
	m := map[string]float64{}
	for _, p := range []struct {
		name string
		unit time.Duration
		fn   func() (batch, error)
	}{
		{"tor.cell_send_ns", time.Nanosecond, cellSendProbe},
		{"tor.dial_us", time.Microsecond, dialProbe},
		{"tor.keygen_us", time.Microsecond, keygenProbe},
		{"botcrypto.seal_open_ns", time.Nanosecond, sealOpenProbe},
		{"pow.hash_ns", time.Nanosecond, powProbe},
		{"sim.event_ns", time.Nanosecond, eventProbe},
		{"tor.store_put_ns", time.Nanosecond, storeProbe(false)},
		{"tor.store_get_ns", time.Nanosecond, storeProbe(true)},
	} {
		batch, err := p.fn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		v, err := probe(p.unit, batch)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = v
	}
	return m, nil
}

// hostedService bootstraps a 20-relay network with one hidden service.
func hostedService(seed byte) (*tor.Network, *tor.HiddenService, error) {
	n := tor.NewNetwork(sim.NewScheduler(), sim.NewRNG(uint64(seed)), tor.Config{})
	if err := n.Bootstrap(20); err != nil {
		return nil, nil, err
	}
	var key [32]byte
	key[0] = seed
	hs, err := tor.NewProxy(n).Host(tor.IdentityFromSeed(key), func(*tor.Conn) {})
	return n, hs, err
}

// cellSendProbe: one full-payload Conn.Send over an established
// rendezvous circuit (onion-layered send, six hops and the join).
func cellSendProbe() (batch, error) {
	n, hs, err := hostedService(2)
	if err != nil {
		return nil, err
	}
	conn, err := tor.NewProxy(n).Dial(hs.Onion())
	if err != nil {
		return nil, err
	}
	msg := make([]byte, tor.MaxCellPayload)
	return func() (int, time.Duration, error) {
		return timed(20000, func() error {
			for i := 0; i < 20000; i++ {
				if err := conn.Send(msg); err != nil {
					return err
				}
			}
			return nil
		})
	}, nil
}

// dialProbe: one Proxy.Dial (descriptor fetch, introduction and
// rendezvous) plus Close.
func dialProbe() (batch, error) {
	n, hs, err := hostedService(1)
	if err != nil {
		return nil, err
	}
	client := tor.NewProxy(n)
	return func() (int, time.Duration, error) {
		return timed(300, func() error {
			for i := 0; i < 300; i++ {
				conn, err := client.Dial(hs.Onion())
				if err != nil {
					return err
				}
				conn.Close()
			}
			return nil
		})
	}, nil
}

// keygenProbe: one identity derivation and its onion service id, the
// cost of every joining bot and address rotation.
func keygenProbe() (batch, error) {
	rng := sim.NewRNG(3)
	var seed [32]byte
	return func() (int, time.Duration, error) {
		return timed(3000, func() error {
			for i := 0; i < 3000; i++ {
				copy(seed[:], rng.Bytes(32))
				_ = tor.IdentityFromSeed(seed).ServiceID()
			}
			return nil
		})
	}, nil
}

// sealOpenProbe: one seal and one open under a cached session key.
func sealOpenProbe() (batch, error) {
	drbg := botcrypto.NewDRBG([]byte("perfbench-session"))
	sk := botcrypto.NewSealKey(drbg.Bytes(32))
	msg := drbg.Bytes(120)
	var cell [botcrypto.SealedSize]byte
	return func() (int, time.Duration, error) {
		return timed(20000, func() error {
			for i := 0; i < 20000; i++ {
				if err := sk.SealSizedInto(cell[:], msg, drbg); err != nil {
					return err
				}
				if _, err := sk.Open(cell[:]); err != nil {
					return err
				}
			}
			return nil
		})
	}, nil
}

// powProbe: the hashes pow.Solve spends, timed per hash.
func powProbe() (batch, error) {
	challenge := []byte("perfbench-pow-00")
	round := uint64(0)
	return func() (int, time.Duration, error) {
		hashes := 0
		start := time.Now()
		for hashes < 1<<18 {
			binary.BigEndian.PutUint64(challenge[8:], round)
			round++
			_, h := pow.Solve(challenge, 12)
			hashes += int(h)
		}
		return hashes, time.Since(start), nil
	}, nil
}

// eventProbe: one Scheduler.After plus the Step that fires it.
func eventProbe() (batch, error) {
	s := sim.NewScheduler()
	fn := func() {}
	return func() (int, time.Duration, error) {
		return timed(200000, func() error {
			for i := 0; i < 200000; i++ {
				s.After(time.Millisecond, fn)
				if !s.Step() {
					return errors.New("scheduled event did not fire")
				}
			}
			return nil
		})
	}, nil
}

// storeProbe times Put (get=false) or Get (get=true) of 10^5 distinct
// ids on a fresh default descriptor store per batch; Get batches fill
// the store untimed first.
func storeProbe(get bool) func() (batch, error) {
	return func() (batch, error) {
		newStore, err := tor.NewDescriptorStoreByName("")
		if err != nil {
			return nil, err
		}
		ids := make([]tor.DescriptorID, 100000)
		for i := range ids {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(i))
			sum := sha256.Sum256(b[:])
			copy(ids[i][:], sum[:])
		}
		d := &tor.Descriptor{}
		return func() (int, time.Duration, error) {
			store := newStore()
			put := func() error {
				for _, id := range ids {
					store.Put(id, d)
				}
				return nil
			}
			if !get {
				return timed(len(ids), put)
			}
			_ = put()
			return timed(len(ids), func() error {
				for _, id := range ids {
					if _, ok := store.Get(id); !ok {
						return errors.New("stored descriptor not found")
					}
				}
				return nil
			})
		}, nil
	}
}
