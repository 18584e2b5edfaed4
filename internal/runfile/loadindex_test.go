package runfile

import (
	"bytes"
	"errors"
	"testing"
)

// loadIndexFixture writes a small v2 run file and returns its bytes,
// the index its footer carries, and the byte offset where the group
// section ends (the start of the end-of-groups marker).
func loadIndexFixture(t *testing.T) ([]byte, []IndexEntry, int64) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	groups := []struct {
		key  string
		vals []string
	}{
		{"alpha", []string{"1", "22", "333"}},
		{"alps", []string{"4444"}},
		{"beta", []string{"5", "6"}},
	}
	for _, g := range groups {
		var vs [][]byte
		for _, v := range g.vals {
			vs = append(vs, []byte(v))
		}
		if err := w.WriteGroup([]byte(g.key), vs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("ReadIndex on intact file: %v", err)
	}
	return data, idx, w.BodyBytes()
}

// TestLoadIndexRecoversTornFooter truncates a v2 file at every point
// from the end of the trailer back to the end of the group section —
// the states a crashed writer leaves behind — and requires LoadIndex
// to recover the full index via the sequential-scan fallback.
func TestLoadIndexRecoversTornFooter(t *testing.T) {
	data, want, bodyEnd := loadIndexFixture(t)

	// Every truncation point from just-short-of-intact down to the end
	// of the end-of-groups marker (a 5-byte uvarint at bodyEnd; a cut
	// inside the marker is indistinguishable from a torn group frame
	// and correctly stays fatal).
	markerEnd := bodyEnd + 5
	for size := int64(len(data) - 1); size >= markerEnd; size-- {
		cut := data[:size]
		got, err := LoadIndex(bytes.NewReader(cut), size)
		if err != nil {
			t.Fatalf("truncated at %d of %d: LoadIndex failed: %v", size, len(data), err)
		}
		if len(got) != len(want) {
			t.Fatalf("truncated at %d: recovered %d entries, want %d", size, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || got[i].Count != want[i].Count ||
				got[i].Offset != want[i].Offset || got[i].ValueBytes != want[i].ValueBytes {
				t.Fatalf("truncated at %d: entry %d = %+v, want %+v", size, i, got[i], want[i])
			}
		}
	}

	// A corrupted trailer magic (torn in place, not short) also recovers.
	torn := append([]byte(nil), data...)
	torn[len(torn)-1] ^= 0xff
	if _, err := LoadIndex(bytes.NewReader(torn), int64(len(torn))); err != nil {
		t.Fatalf("bad trailer magic: LoadIndex failed: %v", err)
	}
	// And a garbage footer offset (ErrCorrupt, not ErrNoIndex).
	badOff := append([]byte(nil), data...)
	badOff[len(badOff)-trailerLen] = 0xff
	if _, err := LoadIndex(bytes.NewReader(badOff), int64(len(badOff))); err != nil {
		t.Fatalf("bad footer offset: LoadIndex failed: %v", err)
	}
}

// TestLoadIndexTornGroupFails: when the group section itself is torn
// (crash mid-group), the fallback scan cannot vouch for the data and
// LoadIndex must fail with both causes in the message and ErrCorrupt
// in the chain.
func TestLoadIndexTornGroupFails(t *testing.T) {
	data, _, _ := loadIndexFixture(t)
	scan, err := ScanIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	midGroup := scan[1].Offset + 2 // inside the second group's framing
	cut := data[:midGroup]
	_, err = LoadIndex(bytes.NewReader(cut), midGroup)
	if err == nil {
		t.Fatal("LoadIndex succeeded on a file torn mid-group")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt in the chain", err)
	}
}

// TestLoadIndexFailureKeepsBothCauses: when both the footer read and
// the fallback scan fail, BOTH errors must stay error-chain reachable —
// the footer cause used to be flattened to text (%v), which hid the
// root cause (e.g. an injected fault) from errors.Is at the recovery
// call sites that decide whether a section is salvageable.
func TestLoadIndexFailureKeepsBothCauses(t *testing.T) {
	data, _, _ := loadIndexFixture(t)
	scan, err := ScanIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cut := data[:scan[1].Offset+2] // torn mid-group: footer gone, scan fails
	_, err = LoadIndex(bytes.NewReader(cut), int64(len(cut)))
	if err == nil {
		t.Fatal("LoadIndex succeeded on a file torn mid-group")
	}
	// Scan cause: the torn group is ErrCorrupt. Footer cause: the missing
	// trailer is ErrNoIndex. Both must survive the wrapping.
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan cause (ErrCorrupt) lost: %v", err)
	}
	if !errors.Is(err, ErrNoIndex) {
		t.Fatalf("footer cause (ErrNoIndex) lost: %v", err)
	}
}
