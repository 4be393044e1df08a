package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ibasec/internal/packet"
)

// refPairs is the pair bookkeeping Build once kept: a map over every
// ordered pair sharing a partition, filled group by group with each pair
// kept under the first partition it shares, and each node's partner list
// appended in that same order.
func refPairs(groups [][]int, n int) (pair map[[2]int]packet.PKey, partners [][]int) {
	pair = make(map[[2]int]packet.PKey)
	partners = make([][]int, n)
	for g, members := range groups {
		pk := packet.PKey(0x8000 | uint16(g+1))
		for _, node := range members {
			for _, peer := range members {
				if peer == node {
					continue
				}
				key := [2]int{node, peer}
				if _, dup := pair[key]; !dup {
					pair[key] = pk
					partners[node] = append(partners[node], peer)
				}
			}
		}
	}
	return pair, partners
}

// refRCPairs is rcPairs over the reference map, in map order before its
// full sort.
func refRCPairs(pair map[[2]int]packet.PKey, w, max int, bothDims bool) []rcPair {
	var pairs []rcPair
	for key := range pair {
		a, b := key[0], key[1]
		if a >= b {
			continue
		}
		ax, ay := a%w, a/w
		bx, by := b%w, b/w
		if bothDims && (ax == bx || ay == by) {
			continue
		}
		pairs = append(pairs, rcPair{a, b, abs(ax-bx) + abs(ay-by)})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].dist != pairs[j].dist {
			return pairs[i].dist > pairs[j].dist
		}
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	if len(pairs) > max {
		pairs = pairs[:max]
	}
	return pairs
}

// TestPairTableMatchesMap holds Build's partner lists and PairPKey to
// the pair map: every pair's P_Key, each node's partner list in order,
// and the RC probe pairs chosen from them, across seeds, partition
// counts and mesh sizes. The reference groups are drawn by the same
// partitionGroups call from the same seed, and each node's partition
// table must hold exactly the group that names it.
func TestPairTableMatchesMap(t *testing.T) {
	for k := 2; k <= 8; k++ {
		for _, parts := range []int{1, 4} {
			for seed := int64(1); seed <= 8; seed++ {
				name := fmt.Sprintf("%dx%d/parts=%d/seed=%d", k, k, parts, seed)
				cfg := DefaultConfig()
				cfg.MeshW, cfg.MeshH = k, k
				cfg.NumPartitions = parts
				cfg.Seed = seed
				checkPairTable(t, name, cfg)
			}
		}
	}
}

func checkPairTable(t *testing.T, name string, cfg Config) {
	t.Helper()
	cl, err := Build(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := cl.Mesh.NumNodes()
	groups := partitionGroups(&cfg, rand.New(rand.NewSource(cfg.Seed)), n)
	for node := 0; node < n; node++ {
		var want []packet.PKey
		for g, members := range groups {
			if slices.Contains(members, node) {
				want = append(want, packet.PKey(0x8000|uint16(g+1)))
			}
		}
		if got := cl.Mesh.HCA(node).PKeyTable.Keys(); !slices.Equal(got, want) {
			t.Fatalf("%s: node %d holds %v, the reference groups give %v", name, node, got, want)
		}
	}
	pair, partners := refPairs(groups, n)
	for a := 0; a < n; a++ {
		if !slices.Equal(cl.Partners[a], partners[a]) {
			t.Fatalf("%s: Partners[%d] = %v, want %v", name, a, cl.Partners[a], partners[a])
		}
		for b := 0; b < n; b++ {
			if got, want := cl.PairPKey(a, b), pair[[2]int{a, b}]; got != want {
				t.Fatalf("%s: PairPKey(%d, %d) = %#x, want %#x", name, a, b, got, want)
			}
		}
	}
	for _, bothDims := range []bool{false, true} {
		for _, max := range []int{maxProbeFlows, n * n} {
			got, want := rcPairs(cl, max, bothDims), refRCPairs(pair, cfg.MeshW, max, bothDims)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: rcPairs(max %d, bothDims %v) = %v, want %v", name, max, bothDims, got, want)
			}
		}
	}
}
