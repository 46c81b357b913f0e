package vfs

import (
	"errors"
	"io"
	"testing"
)

func TestQuotaEnforcesLimit(t *testing.T) {
	q := NewQuota(NewMem(), 10)
	f, err := q.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := WriteFull(f, []byte("12345")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	// Second write exceeds the budget: the prefix that fits must land and the
	// call must report ErrNoSpace.
	n, err := f.Write([]byte("67890X"))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got n=%d err=%v", n, err)
	}
	if n != 5 {
		t.Fatalf("torn prefix: want 5 bytes landed, got %d", n)
	}
	f.Close()
	if got := q.Used(); got != 10 {
		t.Fatalf("Used: want 10, got %d", got)
	}
	data, err := ReadFile(q, "a")
	if err != nil || string(data) != "1234567890" {
		t.Fatalf("content: %q err=%v", data, err)
	}
}

func TestQuotaWriteFileShortWriteSurfaces(t *testing.T) {
	q := NewQuota(NewMem(), 3)
	err := WriteFile(q, "a", []byte("toolong"))
	if !errors.Is(err, ErrNoSpace) && !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("WriteFile over quota must fail, got %v", err)
	}
}

func TestQuotaReleaseOnRemoveRenameTruncate(t *testing.T) {
	q := NewQuota(NewMem(), 100)
	for _, name := range []string{"a", "b"} {
		if err := WriteFile(q, name, []byte("0123456789")); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
	}
	if got := q.Used(); got != 20 {
		t.Fatalf("Used after writes: want 20, got %d", got)
	}
	// Rename over b: b's charge is credited, a's charge follows the file.
	if err := q.Rename("a", "b"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if got := q.Used(); got != 10 {
		t.Fatalf("Used after clobbering rename: want 10, got %d", got)
	}
	// Truncate via Create credits the old contents.
	f, err := q.Create("b")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	f.Close()
	if got := q.Used(); got != 0 {
		t.Fatalf("Used after truncate: want 0, got %d", got)
	}
	if err := WriteFile(q, "b", []byte("xy")); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := q.Remove("b"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := q.Used(); got != 0 {
		t.Fatalf("Used after remove: want 0, got %d", got)
	}
}

func TestQuotaSetLimitRecovers(t *testing.T) {
	q := NewQuota(NewMem(), 4)
	if err := WriteFile(q, "a", []byte("full")); err != nil {
		t.Fatalf("fill: %v", err)
	}
	if err := WriteFile(q, "b", []byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if n := q.NoSpaceErrors(); n != 1 {
		t.Fatalf("NoSpaceErrors: want 1, got %d", n)
	}
	q.SetLimit(0) // unlimited
	if err := WriteFile(q, "b", []byte("x")); err != nil {
		t.Fatalf("write after raise: %v", err)
	}
}

func TestQuotaChargeDir(t *testing.T) {
	base := NewMem()
	if err := base.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(base, "db/000001.sst", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	q := NewQuota(base, 15)
	if err := q.ChargeDir("db"); err != nil {
		t.Fatalf("ChargeDir: %v", err)
	}
	if got := q.Used(); got != 10 {
		t.Fatalf("Used after ChargeDir: want 10, got %d", got)
	}
	// Deleting the pre-existing file must release its charge.
	if err := q.Remove("db/000001.sst"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := q.Used(); got != 0 {
		t.Fatalf("Used after remove: want 0, got %d", got)
	}
}
