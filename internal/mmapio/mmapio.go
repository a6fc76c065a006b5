// Package mmapio maps byte ranges of files into memory for zero-copy
// serving of on-disk artifacts — whole snapshot files foremost: the
// disk store decodes a cold hit from one mapping of its file, and the
// graph arena inside it is served from the mapping in place. On linux
// the mapping is a real mmap: the kernel pages bytes in on demand and
// may drop clean pages under memory pressure, so a mapped graph costs
// address space, not resident heap. Other platforms fall back to
// reading the range into an ordinary buffer, keeping the API (and
// every caller) portable.
//
// Mappings are read-only. The caveat every caller inherits on the
// real-mmap platforms: if the backing file is truncated while mapped,
// touching the vanished pages raises SIGBUS and kills the process —
// the snapshot store's rename-into-place discipline (files are
// replaced, never shortened) is what makes serving from a mapping
// safe there.
package mmapio

// Mapping is one mapped (or, on fallback platforms, read) file range.
// Close releases it; Data must not be touched afterwards.
type Mapping struct {
	data  []byte
	unmap func() error
}

// Data returns the mapped bytes. The base address is 8-byte aligned
// whenever the requested file offset is a multiple of 8 (page-aligned
// mappings preserve offset-within-page; the fallback allocates
// aligned), so a mapping of a whole file puts every 8-aligned file
// offset — a snapshot's graph arena among them — at an 8-aligned
// address the arena can be aliased at.
func (m *Mapping) Data() []byte { return m.data }

// Close releases the mapping. Safe to call exactly once; the Data
// slice is invalid afterwards.
func (m *Mapping) Close() error {
	if m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	m.data = nil
	return u()
}
