package stateset

import (
	"bytes"
	"testing"
)

// FuzzStateSet is a differential test of Set against a map[string]uint32
// reference. The input is a program: its first byte picks the key width,
// then each op byte, followed by one key's bytes, inserts the key (when
// it is new), probes it, or spills the resident entries, checking each
// spill blob against the reference and, on an odd key byte, rolling the
// spill back with Restore.
func FuzzStateSet(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1, 1, 2, 2, 3, 1, 0, 3, 3, 0})
	f.Add([]byte{2, 0, 1, 2, 3, 0, 4, 5, 6, 2, 1, 2, 3, 3, 1, 1, 1, 0, 0, 0, 3, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{1, 0, 7, 7, 0, 9, 1, 2, 3, 3, 3}, 40))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		widths := []int{1, 2, 3, 8, 33}
		width := widths[int(prog[0])%len(widths)]
		prog = prog[1:]
		s := New(width)
		resident := make(map[string]uint32) // entries in memory
		spilled := make(map[string]uint32)  // entries moved to blobs
		key := make([]byte, width)
		for len(prog) > 0 {
			op := prog[0] % 4
			prog = prog[1:]
			clear(key)
			prog = prog[copy(key, prog):]
			switch op {
			case 0, 1: // insert, when new to the set
				_, inRes := resident[string(key)]
				_, inSp := spilled[string(key)]
				if inRes || inSp {
					continue
				}
				want := uint32(len(resident) + len(spilled))
				if r := s.Insert(key); r != want {
					t.Fatalf("Insert(%x) = rank %d, want %d", key, r, want)
				}
				resident[string(key)] = want
			case 2: // probe
				want, wantOK := resident[string(key)]
				if r, ok := s.Rank(key); ok != wantOK || r != want {
					t.Fatalf("Rank(%x) = %d,%v, want %d,%v", key, r, ok, want, wantOK)
				}
				if s.Has(key) != wantOK {
					t.Fatalf("Has(%x) = %v, want %v", key, !wantOK, wantOK)
				}
			case 3: // spill, then maybe roll back
				blob := s.Spill()
				if len(resident) == 0 {
					if blob != nil {
						t.Fatalf("Spill with nothing resident returned %d bytes", len(blob))
					}
					continue
				}
				br, err := NewBlobReader(blob)
				if err != nil {
					t.Fatalf("NewBlobReader: %v", err)
				}
				if br.Len() != len(resident) || br.Width() != width {
					t.Fatalf("blob Len=%d Width=%d, want %d and %d", br.Len(), br.Width(), len(resident), width)
				}
				n := 0
				br.ForEach(func(k []byte, r uint32) {
					if want, ok := resident[string(k)]; !ok || want != r {
						t.Fatalf("blob entry %x rank %d, reference %d,%v", k, r, want, ok)
					}
					n++
				})
				if n != len(resident) {
					t.Fatalf("blob ForEach visited %d entries, want %d", n, len(resident))
				}
				if s.Resident() != 0 {
					t.Fatalf("Resident=%d after Spill", s.Resident())
				}
				if key[0]%2 == 1 {
					if err := s.Restore(blob); err != nil {
						t.Fatalf("Restore: %v", err)
					}
					continue
				}
				for k, r := range resident {
					spilled[k] = r
				}
				clear(resident)
			}
			if s.Len() != len(resident)+len(spilled) || s.Resident() != len(resident) {
				t.Fatalf("Len=%d Resident=%d, reference %d and %d",
					s.Len(), s.Resident(), len(resident)+len(spilled), len(resident))
			}
		}
		for k, want := range resident {
			if r, ok := s.Rank([]byte(k)); !ok || r != want {
				t.Fatalf("final Rank(%x) = %d,%v, want %d", k, r, ok, want)
			}
		}
	})
}
