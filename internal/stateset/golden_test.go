package stateset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// spillGolden is the SHA-256 of each spill blob of goldenSequence, in
// spill order. The blob is an on-disk format (spill files, their
// rollback through Restore), so any change of layout, ordering or shard
// function must show here first and bump blobMagic.
var spillGolden = map[int][]string{
	1: {
		"fde58418c71f7135d46de7f8b48e2a8a1d9d3058712f3234dd5e83d93acbcbf4",
		"8430271d1e34cc00fbc68c190a3c8158cee0e78213f8a2629ee552c3e7823624",
	},
	3: {
		"59709b25b2ad0a818ddf9e5d217106e83338cf28a6b3e575e784f0ce918c0f05",
		"cebac96c9d16200bf8c66605acb9905d1b591972bd9e8beaf07e73b5da293c8b",
	},
	8: {
		"c7792d53fbdc4683a04daf9bdc6c63b1398bbcc5c75cf96a9447417a45b6e375",
		"7cd8fd0ccedc7abf3e04d7a3b3d5827f88c24453197f9fc0511c69a15185db79",
	},
	33: {
		"5809ea03e04f93bbbd4068f51cbcdeb59e2375bb433562096f69a6dea8e5015a",
		"b72cf053ca9d5cfda03c5b249ecf52f7882abc15d56101992da7ecd4b84ad078",
	},
	300: {
		"8531b6b859043ca7be503d1073f14ad1874fe2278ee7694f619248bfb24f417e",
		"a3b28467eaae21902ee0380cc3bae5e759e879374d08cccf904b222fa4083bc0",
	},
}

// goldenSequence inserts a seeded key sequence of the given width, spills
// it in two parts and returns both blobs. The first blob is restored and
// spilled again before the second part is inserted, so the golden also
// covers a Restore round trip.
func goldenSequence(t *testing.T, width int) [][]byte {
	t.Helper()
	count := 4000
	switch width {
	case 1:
		count = 200 // of 256 possible keys
	case 300:
		count = 500
	}
	keys := randomKeys(rand.New(rand.NewSource(int64(1993+width))), width, count)
	s := New(width)
	half := count * 3 / 5
	for _, k := range keys[:half] {
		s.Insert(k)
	}
	first := s.Spill()
	if err := s.Restore(first); err != nil {
		t.Fatalf("width %d: Restore: %v", width, err)
	}
	if s.Resident() != half || s.Len() != half {
		t.Fatalf("width %d: after Restore Resident=%d Len=%d, want %d", width, s.Resident(), s.Len(), half)
	}
	for i, k := range keys[:half] {
		if r, ok := s.Rank(k); !ok || r != uint32(i) {
			t.Fatalf("width %d: restored Rank(key %d) = %d,%v", width, i, r, ok)
		}
	}
	if again := s.Spill(); !bytes.Equal(again, first) {
		t.Fatalf("width %d: spill after Restore differs from the restored blob", width)
	}
	for _, k := range keys[half:] {
		s.Insert(k)
	}
	return [][]byte{first, s.Spill()}
}

// TestSpillBlobGolden pins the spill blob bytes of seeded insert
// sequences at widths 1, 3, 8, 33 and 300 (a key wider than the
// one-byte width field of version-2 blobs could describe).
func TestSpillBlobGolden(t *testing.T) {
	for _, width := range []int{1, 3, 8, 33, 300} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			for i, blob := range goldenSequence(t, width) {
				sum := sha256.Sum256(blob)
				if got := hex.EncodeToString(sum[:]); got != spillGolden[width][i] {
					t.Errorf("blob %d: sha256 %s, golden %s", i, got, spillGolden[width][i])
				}
			}
		})
	}
}
