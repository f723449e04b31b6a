// Package mem models the memory subsystem of EMERALDS: address spaces
// with full memory protection for multi-threaded processes (§3),
// shared-memory regions mappable into several spaces (the third IPC
// mechanism of Figure 1), and the kernel's dynamic RAM accounting
// against the on-chip budget.
//
// There is no virtual memory — the targets run everything out of
// physical on-chip RAM (§4: "Virtual memory is not a concern in our
// target applications") — so a region is simply a contiguous byte range
// with per-space access rights.
package mem

import (
	"fmt"
)

// PaperKernelSize is the §3 measured code size on the 68040: "a rich
// set of OS services in just 13 kbytes of code". It is quoted, not
// derived: the simulator has no code to measure.
const PaperKernelSize = 13 * 1024

// KernelBudget is the §1 upper bound on the code size of a
// small-memory RTOS, derived from 32–128 KB on-chip memories.
const KernelBudget = 20 * 1024

// Perm is an access permission.
type Perm uint8

const (
	// NoAccess means the region is not mapped in the space.
	NoAccess Perm = iota
	// ReadOnly allows loads.
	ReadOnly
	// ReadWrite allows loads and stores.
	ReadWrite
)

func (p Perm) String() string {
	switch p {
	case NoAccess:
		return "---"
	case ReadOnly:
		return "r--"
	case ReadWrite:
		return "rw-"
	default:
		return fmt.Sprintf("perm(%d)", uint8(p))
	}
}

// Region is a contiguous block of protectable memory.
type Region struct {
	ID   int
	Name string
	data []byte
}

// Size reports the region's length in bytes.
func (r *Region) Size() int { return len(r.data) }

// Fault describes a protection or bounds violation.
type Fault struct {
	Space  int
	Region int
	Offset int
	Write  bool
	Reason string
}

func (f *Fault) Error() string {
	op := "load"
	if f.Write {
		op = "store"
	}
	return fmt.Sprintf("mem: %s fault in space %d, region %d, offset %d: %s",
		op, f.Space, f.Region, f.Offset, f.Reason)
}

// System is the set of address spaces and regions on one node.
type System struct {
	regions []*Region
	// perms[space][region] — small dense matrices; embedded nodes have
	// a handful of each.
	perms [][]Perm
}

// NewSystem returns an empty memory system.
func NewSystem() *System { return &System{} }

// NewSpace creates an address space and returns its id. Space 0 is
// conventionally the kernel's.
func (s *System) NewSpace() int {
	id := len(s.perms)
	s.perms = append(s.perms, make([]Perm, len(s.regions)))
	return id
}

// NewRegion allocates a region of size bytes and returns it.
func (s *System) NewRegion(name string, size int) *Region {
	r := &Region{ID: len(s.regions), Name: name, data: make([]byte, size)}
	s.regions = append(s.regions, r)
	for i := range s.perms {
		s.perms[i] = append(s.perms[i], NoAccess)
	}
	return r
}

// Map grants space the given permission on region. Mapping the same
// region into several spaces is shared-memory IPC.
func (s *System) Map(space, region int, perm Perm) error {
	if space < 0 || space >= len(s.perms) {
		return fmt.Errorf("mem: no space %d", space)
	}
	if region < 0 || region >= len(s.regions) {
		return fmt.Errorf("mem: no region %d", region)
	}
	s.perms[space][region] = perm
	return nil
}

// PermFor reports space's permission on region.
func (s *System) PermFor(space, region int) Perm {
	if space < 0 || space >= len(s.perms) || region < 0 || region >= len(s.regions) {
		return NoAccess
	}
	return s.perms[space][region]
}

// Region returns the region with the given id, or nil.
func (s *System) Region(id int) *Region {
	if id < 0 || id >= len(s.regions) {
		return nil
	}
	return s.regions[id]
}

// Load reads size bytes at offset in region on behalf of space,
// returning the first 8 bytes as a little-endian value (embedded reads
// are word-sized; larger sizes model block copies and only the leading
// word is interpreted).
func (s *System) Load(space, region, offset, size int) (int64, error) {
	r := s.Region(region)
	if r == nil {
		return 0, &Fault{Space: space, Region: region, Offset: offset, Reason: "no such region"}
	}
	if s.PermFor(space, region) == NoAccess {
		return 0, &Fault{Space: space, Region: region, Offset: offset, Reason: "not mapped"}
	}
	if offset < 0 || size < 0 || offset+size > len(r.data) {
		return 0, &Fault{Space: space, Region: region, Offset: offset, Reason: "out of bounds"}
	}
	var v int64
	for i := 0; i < size && i < 8; i++ {
		v |= int64(r.data[offset+i]) << (8 * i)
	}
	return v, nil
}

// Store writes val (little-endian, up to 8 bytes) at offset in region
// on behalf of space.
func (s *System) Store(space, region, offset int, val int64, size int) error {
	r := s.Region(region)
	if r == nil {
		return &Fault{Space: space, Region: region, Offset: offset, Write: true, Reason: "no such region"}
	}
	if s.PermFor(space, region) != ReadWrite {
		return &Fault{Space: space, Region: region, Offset: offset, Write: true, Reason: "not writable"}
	}
	if offset < 0 || size < 0 || offset+size > len(r.data) {
		return &Fault{Space: space, Region: region, Offset: offset, Write: true, Reason: "out of bounds"}
	}
	for i := 0; i < size && i < 8; i++ {
		r.data[offset+i] = byte(val >> (8 * i))
	}
	return nil
}
