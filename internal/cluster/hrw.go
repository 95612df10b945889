package cluster

import (
	"hash/fnv"
	"sort"
)

// hrwScore is the rendezvous weight of (node, key): a 64-bit FNV-1a over
// the node address and the key, NUL-separated, passed through the
// splitmix64 finalizer. Every node computes the same scores from the same
// inputs, so the cluster agrees on each key's owner ranking with no
// coordination. The finalizer matters: FNV-1a's high bits mix the last
// bytes weakly, and without it some address pairs differing only in the
// port (127.0.0.1:40000 and :40074) compared the same way for every key,
// so one node owned them all.
func hrwScore(node, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(key))
	z := h.Sum64()
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Rank orders node addresses by descending rendezvous weight for key —
// index 0 is the key's owner, index 1 its first replica, and so on. Ties
// (only possible with duplicate addresses) break lexicographically so the
// ranking is total. Removing a node from the input never reorders the
// surviving nodes relative to each other, which is the HRW property that
// keeps cache affinity stable across membership changes.
func Rank(nodes []string, key string) []string {
	ranked := make([]string, len(nodes))
	copy(ranked, nodes)
	sort.SliceStable(ranked, func(a, b int) bool {
		sa, sb := hrwScore(ranked[a], key), hrwScore(ranked[b], key)
		if sa != sb {
			return sa > sb
		}
		return ranked[a] < ranked[b]
	})
	return ranked
}

// rankPeers orders the peer set by descending rendezvous weight for key.
func rankPeers(peers []*peer, key string) []*peer {
	ranked := make([]*peer, len(peers))
	copy(ranked, peers)
	sort.SliceStable(ranked, func(a, b int) bool {
		sa, sb := hrwScore(ranked[a].url, key), hrwScore(ranked[b].url, key)
		if sa != sb {
			return sa > sb
		}
		return ranked[a].url < ranked[b].url
	})
	return ranked
}
