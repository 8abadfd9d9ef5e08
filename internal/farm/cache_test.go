package farm

import (
	"errors"
	"fmt"
	"testing"
)

// These tests pin the snapshot merge semantics: loading several
// snapshots into one cache must be last-write-wins deterministic on
// overlapping keys and must never drop disjoint keys.

func encodeEntries(t *testing.T, m map[string]int) []byte {
	t.Helper()
	c := NewCache[string, int](0)
	c.Fill(m)
	data, err := EncodeSnapshot(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeSnapshotMergeIsLastWriteWins(t *testing.T) {
	first := encodeEntries(t, map[string]int{"a": 1, "b": 2, "shared": 10})
	second := encodeEntries(t, map[string]int{"c": 3, "shared": 20})

	c := NewCache[string, int](0)
	if err := DecodeSnapshot(first, c); err != nil {
		t.Fatal(err)
	}
	if err := DecodeSnapshot(second, c); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 1, "b": 2, "c": 3, "shared": 20}
	got := c.Entries()
	if len(got) != len(want) {
		t.Fatalf("merged cache has %d entries, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("entry %q = %d, want %d", k, got[k], v)
		}
	}

	// The opposite load order flips only the overlapping key.
	c2 := NewCache[string, int](0)
	if err := DecodeSnapshot(second, c2); err != nil {
		t.Fatal(err)
	}
	if err := DecodeSnapshot(first, c2); err != nil {
		t.Fatal(err)
	}
	if got := c2.Entries(); got["shared"] != 10 || len(got) != len(want) {
		t.Fatalf("reverse merge: shared=%d len=%d, want shared=10 len=%d", got["shared"], len(got), len(want))
	}
}

func TestDecodeSnapshotIsDeterministicAcrossRepeats(t *testing.T) {
	a := encodeEntries(t, map[string]int{"x": 1, "y": 2, "z": 3})
	b := encodeEntries(t, map[string]int{"y": 20, "w": 4})
	var ref map[string]int
	for i := 0; i < 10; i++ {
		c := NewCache[string, int](0)
		for _, data := range [][]byte{a, b} {
			if err := DecodeSnapshot(data, c); err != nil {
				t.Fatal(err)
			}
		}
		got := c.Entries()
		if ref == nil {
			ref = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(ref) && len(got) != len(ref) {
			t.Fatalf("merge %d diverged: %v vs %v", i, got, ref)
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("merge %d: entry %q = %d, want %d", i, k, got[k], v)
			}
		}
	}
}

func TestDecodeSnapshotRejectsVersionSkew(t *testing.T) {
	data := []byte(`{"version":1,"entries":{"a":1}}`)
	c := NewCache[string, int](0)
	err := DecodeSnapshot(data, c)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version-1 snapshot decoded with err=%v, want ErrSnapshotVersion", err)
	}
	if c.Len() != 0 {
		t.Fatalf("rejected snapshot still filled %d entries", c.Len())
	}
}
