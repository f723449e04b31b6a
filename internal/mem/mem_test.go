package mem

import (
	"errors"
	"strings"
	"testing"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	s := NewSystem()
	sp := s.NewSpace()
	r := s.NewRegion("data", 64)
	if err := s.Map(sp, r.ID, ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(sp, r.ID, 8, 0x1122334455667788, 8); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load(sp, r.ID, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Errorf("load = %#x", v)
	}
}

func TestProtectionUnmapped(t *testing.T) {
	s := NewSystem()
	sp := s.NewSpace()
	r := s.NewRegion("secret", 16)
	if _, err := s.Load(sp, r.ID, 0, 8); err == nil {
		t.Error("load of unmapped region succeeded")
	}
	var f *Fault
	_, err := s.Load(sp, r.ID, 0, 8)
	if !errors.As(err, &f) {
		t.Fatalf("error type %T", err)
	}
	if f.Write || f.Space != sp {
		t.Errorf("fault = %+v", f)
	}
}

func TestProtectionReadOnly(t *testing.T) {
	s := NewSystem()
	sp := s.NewSpace()
	r := s.NewRegion("ro", 16)
	s.Map(sp, r.ID, ReadOnly)
	if _, err := s.Load(sp, r.ID, 0, 8); err != nil {
		t.Errorf("read-only load failed: %v", err)
	}
	if err := s.Store(sp, r.ID, 0, 1, 8); err == nil {
		t.Error("store through read-only mapping succeeded")
	}
}

func TestBoundsChecking(t *testing.T) {
	s := NewSystem()
	sp := s.NewSpace()
	r := s.NewRegion("small", 8)
	s.Map(sp, r.ID, ReadWrite)
	if _, err := s.Load(sp, r.ID, 4, 8); err == nil {
		t.Error("out-of-bounds load succeeded")
	}
	if err := s.Store(sp, r.ID, -1, 0, 8); err == nil {
		t.Error("negative-offset store succeeded")
	}
	if _, err := s.Load(sp, 99, 0, 8); err == nil {
		t.Error("load from nonexistent region succeeded")
	}
}

func TestSharedMemoryIsolation(t *testing.T) {
	// Two spaces share a region; a third cannot see it — Figure 1's
	// shared-memory IPC under full protection.
	s := NewSystem()
	a, b, c := s.NewSpace(), s.NewSpace(), s.NewSpace()
	r := s.NewRegion("shared", 32)
	s.Map(a, r.ID, ReadWrite)
	s.Map(b, r.ID, ReadOnly)
	if err := s.Store(a, r.ID, 0, 42, 8); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load(b, r.ID, 0, 8)
	if err != nil || v != 42 {
		t.Errorf("b sees %d, %v", v, err)
	}
	if _, err := s.Load(c, r.ID, 0, 8); err == nil {
		t.Error("unmapped space read shared region")
	}
}

func TestMapErrors(t *testing.T) {
	s := NewSystem()
	if err := s.Map(0, 0, ReadWrite); err == nil {
		t.Error("mapping into nonexistent space succeeded")
	}
	sp := s.NewSpace()
	if err := s.Map(sp, 5, ReadWrite); err == nil {
		t.Error("mapping nonexistent region succeeded")
	}
}

func TestRegionsCreatedAfterSpaces(t *testing.T) {
	s := NewSystem()
	sp := s.NewSpace()
	r := s.NewRegion("later", 8)
	if got := s.PermFor(sp, r.ID); got != NoAccess {
		t.Errorf("default perm = %v", got)
	}
	if err := s.Map(sp, r.ID, ReadWrite); err != nil {
		t.Fatal(err)
	}
	if got := s.PermFor(sp, r.ID); got != ReadWrite {
		t.Errorf("perm = %v", got)
	}
}

func TestPermString(t *testing.T) {
	if NoAccess.String() != "---" || ReadOnly.String() != "r--" || ReadWrite.String() != "rw-" {
		t.Error("perm strings wrong")
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Space: 1, Region: 2, Offset: 3, Write: true, Reason: "not writable"}
	msg := f.Error()
	for _, frag := range []string{"store", "space 1", "region 2", "not writable"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("fault message %q missing %q", msg, frag)
		}
	}
}
