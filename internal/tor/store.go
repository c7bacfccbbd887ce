package tor

import "fmt"

// DescriptorStore is the storage behind an HSDir relay's descriptor
// cache: a map keyed by the full 20-byte descriptor id. The zero value
// is an empty store ready to use; the map is allocated on the first
// Put, so relays that never become HSDirs hold no table. A store need
// not be safe for concurrent use: each simulation task drives its
// network from one goroutine.
type DescriptorStore struct {
	m map[DescriptorID]*Descriptor
}

// Put stores (or replaces) the descriptor at id.
func (s *DescriptorStore) Put(id DescriptorID, d *Descriptor) {
	if s.m == nil {
		s.m = make(map[DescriptorID]*Descriptor)
	}
	s.m[id] = d
}

// Get returns the descriptor stored at id, if any.
func (s *DescriptorStore) Get(id DescriptorID) (*Descriptor, bool) {
	d, ok := s.m[id]
	return d, ok
}

// Delete removes the descriptor at id (absent ids are a no-op).
func (s *DescriptorStore) Delete(id DescriptorID) { delete(s.m, id) }

// Len reports the number of stored descriptors.
func (s *DescriptorStore) Len() int { return len(s.m) }

// NewDescriptorStoreByName returns a constructor for the descriptor
// store named name. The only name is "", the map store; any other name
// is an error.
//
// Deprecated: there is one descriptor store. Use a zero DescriptorStore.
// The function remains for callers that still pass a backend name.
func NewDescriptorStoreByName(name string) (func() *DescriptorStore, error) {
	if name != "" {
		return nil, fmt.Errorf("tor: unknown descriptor store %q (the only store is the default, \"\")", name)
	}
	return func() *DescriptorStore { return new(DescriptorStore) }, nil
}
