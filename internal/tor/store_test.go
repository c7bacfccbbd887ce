package tor

import (
	"fmt"
	"testing"
	"time"

	"onionbots/internal/sim"
)

// TestDescriptorStore pins the store's contract one operation at a
// time: put, replace, get-miss, delete, delete of an absent id, and Len.
// Each step runs on the state the previous steps left.
func TestDescriptorStore(t *testing.T) {
	var a, b, c DescriptorID
	a[0], b[0], c[0] = 1, 2, 3
	d1, d2 := &Descriptor{TimePeriod: 1}, &Descriptor{TimePeriod: 2}
	var s DescriptorStore
	for _, tc := range []struct {
		name    string
		op      func()
		id      DescriptorID
		want    *Descriptor // nil: id must be absent
		wantLen int
	}{
		{"zero value is empty", func() {}, a, nil, 0},
		{"put", func() { s.Put(a, d1) }, a, d1, 1},
		{"put second id", func() { s.Put(b, d1) }, b, d1, 2},
		{"replace", func() { s.Put(a, d2) }, a, d2, 2},
		{"get miss", func() {}, c, nil, 2},
		{"delete", func() { s.Delete(a) }, a, nil, 1},
		{"delete absent is a no-op", func() { s.Delete(c) }, b, d1, 1},
		{"delete last", func() { s.Delete(b) }, b, nil, 0},
	} {
		tc.op()
		got, ok := s.Get(tc.id)
		if ok != (tc.want != nil) || got != tc.want {
			t.Fatalf("%s: Get(%x) = (%v, %v), want %v", tc.name, tc.id[:1], got, ok, tc.want)
		}
		if s.Len() != tc.wantLen {
			t.Fatalf("%s: Len = %d, want %d", tc.name, s.Len(), tc.wantLen)
		}
	}
}

// TestNewDescriptorStoreByName pins the deprecated name lookup: the
// empty name builds an empty store, and every other name, including
// the retired backends', is rejected.
func TestNewDescriptorStoreByName(t *testing.T) {
	factory, err := NewDescriptorStoreByName("")
	if err != nil {
		t.Fatalf(`NewDescriptorStoreByName(""): %v`, err)
	}
	if s := factory(); s == nil || s.Len() != 0 {
		t.Fatalf(`NewDescriptorStoreByName("") built %v, want an empty store`, s)
	}
	for _, name := range []string{"flat", "sharded", "mmap", "bogus"} {
		if _, err := NewDescriptorStoreByName(name); err == nil {
			t.Fatalf("NewDescriptorStoreByName(%q) accepted", name)
		}
	}
}

// TestRelayTableSwapRemove exercises relay insertion/removal ordering:
// consensuses published after arbitrary removals must list exactly the
// live relays, and lookups must stay exact.
func TestRelayTableSwapRemove(t *testing.T) {
	sched := sim.NewScheduler()
	n := NewNetwork(sched, sim.NewRNG(5), Config{})
	var fps []Fingerprint
	for i := 0; i < 30; i++ {
		r, err := n.AddRelay()
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, r.Fingerprint())
	}
	sched.RunFor(26 * time.Hour)
	// Remove every third relay, including the first and last inserted.
	removed := map[Fingerprint]bool{}
	for i := 0; i < len(fps); i += 3 {
		n.RemoveRelay(fps[i])
		removed[fps[i]] = true
	}
	if n.NumRelays() != 20 {
		t.Fatalf("NumRelays = %d, want 20", n.NumRelays())
	}
	for _, fp := range fps {
		got := n.Relay(fp)
		if removed[fp] && got != nil {
			t.Fatalf("removed relay %s still resolves", fp)
		}
		if !removed[fp] && (got == nil || got.Fingerprint() != fp) {
			t.Fatalf("live relay %s resolves to %v", fp, got)
		}
	}
	c := n.PublishConsensus()
	if c.NumRelays() != 20 {
		t.Fatalf("consensus lists %d relays, want 20", c.NumRelays())
	}
	for _, ri := range c.Relays {
		if removed[ri.FP] {
			t.Fatalf("consensus lists removed relay %s", ri.FP)
		}
		if !c.IsHSDir(ri.FP) {
			t.Fatalf("mature relay %s lost HSDir flag", ri.FP)
		}
	}
	for fp := range removed {
		if c.IsHSDir(fp) {
			t.Fatalf("removed relay %s has HSDir flag", fp)
		}
	}
}

// BenchmarkDescriptorStoreLookup measures lookup cost at HSDir
// populations matching a large botnet (every bot publishes 2 replicas ×
// 3 directories).
func BenchmarkDescriptorStoreLookup(b *testing.B) {
	for _, size := range []int{1000, 100000} {
		rng := sim.NewRNG(11)
		ids := make([]DescriptorID, size)
		d := &Descriptor{}
		var s DescriptorStore
		for i := range ids {
			copy(ids[i][:], rng.Bytes(20))
			s.Put(ids[i], d)
		}
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(ids[i%size]); !ok {
					b.Fatal("missing id")
				}
			}
		})
	}
}

// BenchmarkDescriptorStoreChurn measures steady put/delete churn at a
// population of 10^5 descriptors.
func BenchmarkDescriptorStoreChurn(b *testing.B) {
	const size = 100000
	rng := sim.NewRNG(13)
	ids := make([]DescriptorID, size)
	d := &Descriptor{}
	var s DescriptorStore
	for i := range ids {
		copy(ids[i][:], rng.Bytes(20))
		s.Put(ids[i], d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%size]
		s.Delete(id)
		s.Put(id, d)
	}
}
