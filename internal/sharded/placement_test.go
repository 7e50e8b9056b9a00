package sharded

import (
	"strings"
	"testing"

	"repro/internal/adapt"
)

// Placement hint → shard mapping: bad hints are rejected loudly, the
// identity hint is the default layout with sticky claims, and a placed
// trie still runs the full update/query protocol.

func TestValidatePlacementRejectsBadHints(t *testing.T) {
	cases := []struct {
		name string
		hint []int
		k    int
		want string // substring the error must carry
	}{
		{"short", []int{0, 1}, 4, "2 entries for 4 shards"},
		{"long", []int{0, 1, 2, 3, 0}, 4, "5 entries for 4 shards"},
		{"negative", []int{0, -1, 2, 3}, 4, "outside group range"},
		{"too-large", []int{0, 1, 2, 4}, 4, "outside group range"},
		{"empty-for-shards", nil, 4, "0 entries for 4 shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidatePlacement(tc.hint, tc.k)
			if err == nil {
				t.Fatalf("ValidatePlacement(%v, %d) accepted a bad hint", tc.hint, tc.k)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not explain the rejection (want %q)", err, tc.want)
			}
		})
	}
	if err := ValidatePlacement([]int{0, 1, 2, 3}, 4); err != nil {
		t.Fatalf("identity hint rejected: %v", err)
	}
	if err := ValidatePlacement([]int{3, 3, 0, 0}, 4); err != nil {
		t.Fatalf("grouped hint rejected: %v", err)
	}
}

func TestNewWithOptionsPlacementRequiresCombining(t *testing.T) {
	if _, err := NewWithOptions(256, 4, Options{Placement: []int{0, 1, 2, 3}}); err == nil {
		t.Fatal("placement without combining was accepted")
	}
	// Adaptive implies combining, so placement composes with it.
	if _, err := NewWithOptions(256, 4, Options{Adaptive: &adapt.Config{}, Placement: []int{0, 1, 2, 3}}); err != nil {
		t.Fatalf("placement + adaptive rejected: %v", err)
	}
}

func TestNewWithOptionsPlacementRejectsBadHint(t *testing.T) {
	if _, err := NewWithOptions(256, 4, Options{Combining: true, Placement: []int{0, 1}}); err == nil {
		t.Fatal("short hint survived construction")
	}
	if _, err := NewWithOptions(256, 4, Options{Combining: true, Placement: []int{0, 9, 0, 0}}); err == nil {
		t.Fatal("out-of-range hint survived construction")
	}
}

// The default (no Placement) is the identity of the placed layout: no
// hint recorded, rotating claims. A placed trie records its hint and
// every shard's combiner claims sticky.
func TestPlacementDefaultIsIdentity(t *testing.T) {
	plain, err := NewCombining(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p := plain.Placement(); p != nil {
		t.Fatalf("unplaced trie reports placement %v", p)
	}
	for i := 0; i < 4; i++ {
		if plain.shards[i].comb.Placed() {
			t.Fatalf("unplaced shard %d has a sticky combiner", i)
		}
	}

	hint := []int{0, 0, 1, 1}
	placed, err := NewWithOptions(256, 4, Options{Combining: true, Placement: hint})
	if err != nil {
		t.Fatal(err)
	}
	got := placed.Placement()
	if len(got) != len(hint) {
		t.Fatalf("Placement() = %v, want %v", got, hint)
	}
	for i := range hint {
		if got[i] != hint[i] {
			t.Fatalf("Placement() = %v, want %v", got, hint)
		}
	}
	// The accessor must hand out a copy, not the live hint.
	got[0] = 3
	if placed.Placement()[0] != 0 {
		t.Fatal("Placement() leaked the internal hint slice")
	}
	for i := 0; i < 4; i++ {
		if !placed.shards[i].comb.Placed() {
			t.Fatalf("placed shard %d is not sticky", i)
		}
		if placed.shards[i].comb.SlotCount() < 8 {
			t.Fatalf("placed shard %d carved only %d slots", i, placed.shards[i].comb.SlotCount())
		}
	}
}

// A placed trie is behaviourally the same set: a single-goroutine
// insert/delete/query sweep agrees key for key with the unplaced one.
// (The concurrent proof is the conformance variant in
// conformance_test.go.)
func TestPlacedTrieSemanticsMatchUnplaced(t *testing.T) {
	placed, err := NewWithOptions(512, 8, Options{Combining: true, Placement: []int{0, 0, 1, 1, 2, 2, 3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewCombining(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x < 512; x += 3 {
		placed.Insert(x)
		plain.Insert(x)
	}
	for x := int64(0); x < 512; x += 9 {
		placed.Delete(x)
		plain.Delete(x)
	}
	for x := int64(0); x < 512; x++ {
		if placed.Search(x) != plain.Search(x) {
			t.Fatalf("Search(%d): placed %v, plain %v", x, placed.Search(x), plain.Search(x))
		}
		if p1, p2 := placed.Predecessor(x), plain.Predecessor(x); p1 != p2 {
			t.Fatalf("Predecessor(%d): placed %d, plain %d", x, p1, p2)
		}
	}
	if placed.Len() != plain.Len() {
		t.Fatalf("Len: placed %d, plain %d", placed.Len(), plain.Len())
	}
}
